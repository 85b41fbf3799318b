#!/usr/bin/env python3
"""Builds the Global-MMCS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload lecture_fanout --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a repository checkout. The library is built from the
repository's own src/ CMake files into .bench_build/perfbench (an
incremental no-op after the first run). The benchmark binary prints a short
report and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. --selftest runs the oracle's self-test.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("lecture_fanout", "session_mesh", "conference_signaling")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/; run from a repository checkout", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (" + " ".join(cmd) + "); see " + log_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="run the oracle self-test")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_oracle_selftest")]).returncode)

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", traces]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in time")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
