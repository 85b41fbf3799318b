#!/usr/bin/env python3
"""Unit tests for determinism_lint.py: each rule fires on a seeded fixture
violation and stays quiet on the equivalent clean snippet.

The production tree is (and must stay) clean, so these fixtures are the
proof that the linter actually detects each class: wall-clock reads,
ambient randomness, pointer formatting, threading primitives (including
std::atomic and thread_local) and hash-order iteration, plus the
sanctioned files and the suppression comment.

Run directly (`python3 tools/lint/tests/test_determinism.py`) or via the
`determinism_lint_selftest` ctest.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import determinism_lint  # noqa: E402
from test_gmmcs_lint import LintCase  # noqa: E402


class DeterminismCase(LintCase):
    def lint(self):
        """{rel: [rule, ...]} over the fixture tree, files without findings
        omitted (the same scoping the command-line driver uses)."""
        sources = self.tree.sources()
        names = determinism_lint.collect_unordered_names(sources)
        out = {}
        for src in sources:
            rules = [rule for _, rule, _ in
                     determinism_lint.lint_source(src, names.get(src.rel, set()))]
            if rules:
                out[src.rel] = rules
        return out


class TestWallClock(DeterminismCase):
    def test_chrono_and_libc_clocks_are_flagged(self):
        self.tree.write("src/sim/timer.cpp", """
#include <chrono>
long a() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
long b() { return time(nullptr); }
long c() { timespec ts; clock_gettime(CLOCK_MONOTONIC, &ts); return ts.tv_sec; }
""")
        self.assertEqual(self.lint(), {
            "src/sim/timer.cpp": ["wall-clock"] * 4})

    def test_sim_time_is_clean(self):
        self.tree.write("src/sim/timer.cpp", """
#include "common/time.hpp"
SimTime later(SimTime now) { return now + duration_ms(5); }
""")
        self.assertEqual(self.lint(), {})


class TestAmbientRandom(DeterminismCase):
    def test_unseeded_sources_are_flagged(self):
        self.tree.write("src/media/jitter.cpp", """
#include <random>
int a() { return std::rand(); }
int b() { std::random_device rd; return rd(); }
int c() { std::mt19937 gen(1); return gen(); }
""")
        self.assertEqual(self.lint(), {
            "src/media/jitter.cpp": ["ambient-random"] * 4})

    def test_the_seeded_rng_home_is_sanctioned(self):
        self.tree.write("src/common/random.cpp", """
#include <random>
std::mt19937_64 engine(7);
""")
        self.assertEqual(self.lint(), {})


class TestPointerFormat(DeterminismCase):
    def test_pointer_values_reaching_output_are_flagged(self):
        self.tree.write("src/broker/dump.cpp", """
void a(const void* p) { std::printf("at %p\\n", p); }
void b(std::ostream& os, int* p) { os << static_cast<const void*>(p); }
""")
        self.assertEqual(self.lint(), {
            "src/broker/dump.cpp": ["pointer-format", "pointer-format"]})

    def test_ids_instead_of_addresses_are_clean(self):
        self.tree.write("src/broker/dump.cpp", """
void a(unsigned id) { std::printf("broker %u\\n", id); }
""")
        self.assertEqual(self.lint(), {})


class TestRawThreading(DeterminismCase):
    def test_threads_and_locks_are_flagged(self):
        self.tree.write("src/sim/pool.hpp", """
#include <thread>
#include <mutex>
class Pool {
  std::thread worker_;
  std::mutex mu_;
  void f() { std::lock_guard<std::mutex> g(mu_); }
};
""")
        self.assertEqual(self.lint(), {
            "src/sim/pool.hpp": ["raw-threading"] * 5})

    def test_atomic_and_thread_local_are_flagged(self):
        self.tree.write("src/common/counter.hpp", """
#include <atomic>
inline std::atomic<unsigned long> g_count{0};
inline thread_local int t_depth = 0;
""")
        self.assertEqual(self.lint(), {
            "src/common/counter.hpp": ["raw-threading"] * 3})

    def test_atomic_shared_pointer_holders_are_flagged(self):
        # An atomically published shared_ptr (the lock-free reader idiom):
        # the include and the member declaration are both caught.
        self.tree.write("src/broker/holder.hpp", """
#include <atomic>
#include <memory>
class Holder {
 public:
  std::shared_ptr<const int> get() const { return cur_.load(); }
 private:
  std::atomic<std::shared_ptr<const int>> cur_;
};
""")
        self.assertEqual(self.lint(), {
            "src/broker/holder.hpp": ["raw-threading", "raw-threading"]})

    def test_plain_counters_are_clean(self):
        self.tree.write("src/common/counter.hpp", """
inline unsigned long g_count = 0;
""")
        self.assertEqual(self.lint(), {})


UNORDERED_HEADER = """
#include <unordered_map>
class Table {
  void dump();
  int total() const;
  std::unordered_map<int, int> rows_;
};
"""


class TestUnorderedIteration(DeterminismCase):
    def test_range_for_over_member_declared_in_own_header_is_flagged(self):
        self.tree.write("src/broker/table.hpp", UNORDERED_HEADER)
        self.tree.write("src/broker/table.cpp", """
#include "broker/table.hpp"
void Table::dump() {
  for (const auto& [k, v] : rows_) emit(k, v);
}
""")
        self.assertEqual(self.lint(), {
            "src/broker/table.cpp": ["unordered-iteration"]})

    def test_allow_with_reason_silences(self):
        self.tree.write("src/broker/table.hpp", UNORDERED_HEADER)
        self.tree.write("src/broker/table.cpp", """
#include "broker/table.hpp"
int Table::total() const {
  int n = 0;
  // det-lint: allow(unordered-iteration) — commutative sum, order-free
  for (const auto& [k, v] : rows_) n += v;
  return n;
}
""")
        self.assertEqual(self.lint(), {})

    def test_allow_for_another_rule_does_not_silence(self):
        self.tree.write("src/broker/table.hpp", UNORDERED_HEADER)
        self.tree.write("src/broker/table.cpp", """
#include "broker/table.hpp"
void Table::dump() {
  // det-lint: allow(wall-clock) — wrong rule
  for (const auto& [k, v] : rows_) emit(k, v);
}
""")
        self.assertEqual(self.lint(), {
            "src/broker/table.cpp": ["unordered-iteration"]})

    def test_same_name_in_an_unrelated_file_is_not_unordered(self):
        # rows_ is unordered only in Table; another file's ordered rows_
        # iterates deterministically and must not be flagged.
        self.tree.write("src/broker/table.hpp", UNORDERED_HEADER)
        self.tree.write("src/broker/other.cpp", """
#include <map>
std::map<int, int> rows_;
void dump() {
  for (const auto& [k, v] : rows_) emit(k, v);
}
""")
        self.assertEqual(self.lint(), {})


if __name__ == "__main__":
    unittest.main(verbosity=2)
