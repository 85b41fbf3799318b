#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly, one seed per run, and
prints the median, the quartiles and the spread (Q3 - Q1) / median of each
end-to-end metric, with the share of failed operations per run.

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --runs 5 --workloads session_mesh

The bounds in BENCHMARK.json come from this script's output: each bound is
at least three times the widest spread seen for its metric.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=seconds + 900)
    if out.returncode != 0:
        raise SystemExit("run failed: " + " ".join(cmd) + "\n" + out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    worst = {}
    for w in workloads:
        values = {}
        shares = set()
        correct = True
        for i in range(args.runs):
            r = run_once(w, args.seed_base + i, seconds)
            correct = correct and r["correct"]
            shares.add(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {args.runs} runs, correct={correct}, failed shares={sorted(shares)}")
        print(f"  {'metric':22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst[name] = max(worst.get(name, 0.0), spread)
            flag = "" if name == "setup_s" or spread < bounds.get(name, 0) / 3 else "  <-- wide"
            print(f"  {name:22} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bounds.get(name, 0):6.3f}{flag}")
    print("\nwidest spread per metric:", json.dumps({k: round(v, 4) for k, v in worst.items()}))


if __name__ == "__main__":
    main()
