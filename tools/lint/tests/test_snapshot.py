#!/usr/bin/env python3
"""Unit tests for the gmmcs-lint snapshot-discipline pass.

The epoch-snapshot control plane (DESIGN.md §12) is only sound while the
published types stay immutable and every holder keeps a const handle. The
production tree is (and must stay) clean, so these fixtures are the proof
that the pass actually detects each violation class: mutable state in a
snapshot type, non-const methods (declared, inline and out-of-line),
const_cast escapes, non-const handles in any scope (the capability
annotations that once exempted writer scopes exempt nothing now), mutable
handle members — plus the by-value build + make_shared<const T> shape the
writer uses, and suppressions. The retired publication rule's fixtures
are kept as proof that the determinism linter's std::atomic ban catches
them.

Run directly (`python3 tools/lint/tests/test_snapshot.py`) or via the
`gmmcs_lint_snapshot_selftest` ctest.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import determinism_lint  # noqa: E402
import gmmcs_lint  # noqa: E402
from test_gmmcs_lint import LintCase  # noqa: E402

# A snapshot type living in src/broker, the shape the rule protects: plain
# data plus const accessors, frozen behind shared_ptr<const Snap>.
CLEAN_SNAP = """
#pragma once
#include <memory>
struct Snap {
  Snap() = default;
  Snap(int e) : epoch(e) {}
  int epoch = 0;
  [[nodiscard]] int lookup(int key) const;
  [[nodiscard]] const int& view() const { return epoch; }
};
using SnapPtr = std::shared_ptr<const Snap>;
"""


class SnapshotCase(LintCase):
    def lint(self, snapshot_types=("Snap",)):
        return gmmcs_lint.pass_snapshot(self.tree.sources(),
                                        snapshot_types=list(snapshot_types))


class TestSnapshotType(SnapshotCase):
    def test_clean_snapshot_type_is_clean(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/snap.cpp", """
#include "broker/snap.hpp"
int Snap::lookup(int key) const { return epoch + key; }
""")
        self.assertEqual(self.lint(), [])

    def test_mutable_member_is_flagged(self):
        self.tree.write("src/broker/snap.hpp", """
struct Snap {
  mutable int cache = 0;
  int lookup(int key) const;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["snapshot-type"])
        self.assertIn("mutable member", findings[0][3])

    def test_nonconst_method_declaration_is_flagged(self):
        self.tree.write("src/broker/snap.hpp", """
struct Snap {
  int epoch = 0;
  void set_epoch(int e);
  [[nodiscard]] int lookup(int key) const;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["snapshot-type"])
        self.assertIn("set_epoch", findings[0][3])

    def test_nonconst_inline_method_is_flagged(self):
        self.tree.write("src/broker/snap.hpp", """
struct Snap {
  int epoch = 0;
  void bump() { ++epoch; }
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["snapshot-type"])
        self.assertIn("bump", findings[0][3])

    def test_nonconst_out_of_line_method_is_flagged(self):
        self.tree.write("src/broker/snap.hpp", """
struct Snap {
  int epoch = 0;
  void bump();
};
""")
        self.tree.write("src/broker/snap.cpp", """
#include "broker/snap.hpp"
void Snap::bump() { ++epoch; }
""")
        findings = self.lint()
        # Both the declaration and the definition are reported.
        self.assertEqual(self.rules(findings),
                         ["snapshot-type", "snapshot-type"])

    def test_constructors_are_exempt(self):
        self.tree.write("src/broker/snap.hpp", """
struct Snap {
  Snap();
  explicit Snap(int e) : epoch(e) {}
  ~Snap();
  int epoch = 0;
};
""")
        self.assertEqual(self.lint(), [])

    def test_other_classes_methods_are_not_snapshot_typed(self):
        # A non-snapshot class with non-const methods mentioning Snap by
        # value stays clean.
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/use.cpp", """
#include "broker/snap.hpp"
struct Builder {
  void grow() { ++n_; }
  int n_ = 0;
};
Snap copy_of(const Snap& s) { return s; }
""")
        self.assertEqual(self.lint(), [])


class TestSnapshotMutation(SnapshotCase):
    def test_const_cast_is_flagged_even_in_former_writer_scope(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/evil.cpp", """
#include "broker/snap.hpp"
void hack(const Snap& s) GMMCS_REQUIRES(ctx_) {
  const_cast<Snap&>(s).epoch = 7;
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["snapshot-mutation"])
        self.assertIn("casting constness away", findings[0][3])

    def test_nonconst_shared_ptr_in_reader_is_flagged(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/reader.cpp", """
#include "broker/snap.hpp"
void peek(std::shared_ptr<Snap> s) {
  s->epoch = 1;
}
""")
        findings = self.lint()
        self.assertTrue(findings)
        self.assertEqual(set(self.rules(findings)), {"snapshot-mutation"})

    def test_nonconst_ref_in_reader_is_flagged(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/reader.cpp", """
#include "broker/snap.hpp"
void touch(Snap& s) {
  Snap* p = &s;
  p->epoch = 1;
}
""")
        findings = self.lint()
        self.assertTrue(findings)
        self.assertEqual(set(self.rules(findings)), {"snapshot-mutation"})

    def test_const_handles_in_reader_are_clean(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/reader.cpp", """
#include "broker/snap.hpp"
int peek(const SnapPtr& snap) {
  const Snap& s = *snap;
  const Snap* p = snap.get();
  return s.lookup(p->epoch);
}
""")
        self.assertEqual(self.lint(), [])

    def test_make_shared_nonconst_is_flagged_even_under_requires(self):
        # Formerly a writer scope (GMMCS_REQUIRES exempted it); the
        # non-const handle rule now applies everywhere.
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/writer.cpp", """
#include "broker/snap.hpp"
void Fabric::publish_now() GMMCS_REQUIRES(ctx_) {
  auto next = std::make_shared<Snap>();
  next->epoch = 2;
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["snapshot-mutation"])
        self.assertIn("make_shared<const T>", findings[0][3])

    def test_build_by_value_and_wrap_const_is_clean(self):
        # The writer shape publish_now uses: a by-value local, wrapped
        # const at publication.
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/writer.cpp", """
#include "broker/snap.hpp"
void Fabric::publish_now() {
  Snap next(2);
  pub_ = std::make_shared<const Snap>(std::move(next));
  cur_ = std::make_shared<const Snap>(Snap{3});
}
""")
        self.assertEqual(self.lint(), [])

    def test_requires_on_header_declaration_no_longer_exempts(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/fabric.hpp", """
#include "broker/snap.hpp"
class Fabric {
 public:
  void publish_now() GMMCS_REQUIRES(ctx_);
};
""")
        self.tree.write("src/broker/fabric.cpp", """
#include "broker/fabric.hpp"
void Fabric::publish_now() {
  auto next = std::make_shared<Snap>();
  next->epoch = 2;
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["snapshot-mutation"])
        self.assertEqual(findings[0][0], "src/broker/fabric.cpp")

    def test_assert_held_no_longer_starts_a_writer_scope(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/half.cpp", """
#include "broker/snap.hpp"
void Fabric::rebuild() {
  auto early = std::make_shared<Snap>();
  ctx_.assert_held();
  auto late = std::make_shared<Snap>();
}
""")
        findings = self.lint()
        # Both handles are flagged, before and after the assert.
        self.assertEqual(self.rules(findings),
                         ["snapshot-mutation", "snapshot-mutation"])

    def test_lambda_is_reported_as_its_own_scope(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/lam.cpp", """
#include "broker/snap.hpp"
void Fabric::rebuild() GMMCS_REQUIRES(ctx_) {
  auto fn = [] {
    auto s = std::make_shared<Snap>();
  };
  fn();
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["snapshot-mutation"])
        self.assertIn("<lambda>", findings[0][3])

    def test_mutable_handle_member_is_flagged(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/keep.hpp", """
#include "broker/snap.hpp"
class Cache {
 public:
  std::shared_ptr<Snap> keep_;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["snapshot-mutation"])
        self.assertIn("Cache", findings[0][3])

    def test_const_handle_member_is_clean(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/keep.hpp", """
#include "broker/snap.hpp"
class Cache {
 public:
  std::shared_ptr<const Snap> keep_;
  SnapPtr also_;
};
""")
        self.assertEqual(self.lint(), [])

    def test_suppression_with_reason_silences(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/reader.cpp", """
#include "broker/snap.hpp"
void migrate(std::shared_ptr<Snap> s) {
  // gmmcs-lint: allow(snapshot-mutation): one-shot migration, single-threaded
  s->epoch = 1;
}
""")
        findings = self.lint()
        # The parameter itself still trips (no suppression on its line).
        self.assertEqual(len(findings), 1)
        self.tree.write("src/broker/reader.cpp", """
#include "broker/snap.hpp"
// gmmcs-lint: allow(snapshot-mutation): one-shot migration, single-threaded
void migrate(std::shared_ptr<Snap> s) {
  s->epoch = 1;
}
""")
        self.assertEqual(self.lint(), [])


class TestRetiredPublicationRule(SnapshotCase):
    """The pass's former atomic-publication rule checked writes to an
    std::atomic snapshot pointer. The published pointer is a plain private
    member now, and the determinism linter bans std::atomic in src/
    outright — a stronger check that rejects every fixture the old rule
    caught, before any publication code is written."""

    HOLDER = """
#include "broker/snap.hpp"
#include <atomic>
class Fabric {
 public:
  SnapPtr snapshot() const { return snap_.load(); }
  void refresh();
 private:
  std::atomic<SnapPtr> snap_;
};
"""
    ALT = """
#include "broker/snap.hpp"
#include <atomic>
class Alt {
 public:
  void oops() { cur_ = nullptr; }
 private:
  std::atomic<std::shared_ptr<const Snap>> cur_;
};
"""

    def det_findings(self, rel):
        src = next(s for s in self.tree.sources() if s.rel == rel)
        return [rule for _, rule, _ in determinism_lint.lint_source(src, set())]

    def test_atomic_snapshot_pointers_are_rejected_by_determinism_lint(self):
        self.tree.write("src/broker/snap.hpp", CLEAN_SNAP)
        self.tree.write("src/broker/fabric.hpp", self.HOLDER)
        self.tree.write("src/broker/alt.hpp", self.ALT)
        for rel in ("src/broker/fabric.hpp", "src/broker/alt.hpp"):
            rules = self.det_findings(rel)
            # The include and the member declaration are both caught.
            self.assertEqual(rules, ["raw-threading", "raw-threading"], rel)


class TestDefaults(SnapshotCase):
    def test_default_types_cover_the_control_plane(self):
        for t in ("ControlSnapshot", "RouteTables", "InterestTable"):
            self.assertIn(t, gmmcs_lint.SNAPSHOT_TYPES)

    def test_pass_runs_with_default_config(self):
        self.tree.write("src/broker/bad.cpp", """
void f(const ControlSnapshot& s) {
  const_cast<ControlSnapshot&>(s);
}
""")
        findings = gmmcs_lint.pass_snapshot(self.tree.sources())
        self.assertEqual(self.rules(findings), ["snapshot-mutation"])

    def test_tree_without_snapshot_types_is_skipped(self):
        self.tree.write("src/common/ok.hpp", "int x;\n")
        self.assertEqual(gmmcs_lint.pass_snapshot(self.tree.sources()), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
