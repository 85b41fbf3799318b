#!/usr/bin/env python3
"""Unit tests for the gmmcs-lint wire pass (pass 8, DESIGN.md §16).

Untrusted-input taint analysis: raw ByteReader reads (u8/u16/u32/u64)
are wire-tainted and must not reach allocation sizes, container
indexing, loop bounds, or Payload::slice offsets without a dominating
remaining()/protocol-max guard. Checked bounded reads
(read_len_bounded / read_count_u8/u16/u32) and std::min clamps are
born sanitized; cursor-derived quantities (position(), remaining(),
rest().size()) are frame-bounded and never tainted. The flagship
fixture replays the real pre-fix kPeerEvent decode this tree shipped:
`std::uint16_t n = r.u16(); targets.reserve(n);` — a 3-byte hostile
frame claiming 65535 targets reserved 256 KiB before the first bounds
check ran.

Run directly (`python3 tools/lint/tests/test_wire.py`) or via the
`gmmcs_lint_wire_selftest` ctest.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gmmcs_lint  # noqa: E402
from test_gmmcs_lint import LintCase  # noqa: E402


class WireCase(LintCase):
    def lint(self):
        return gmmcs_lint.pass_wire(self.tree.sources())

    def assert_clean(self):
        self.assertEqual(self.lint(), [])

    def assert_flagged(self, needle, count=1):
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["wire"] * count,
                         f"expected {count} wire finding(s), got: {findings}")
        self.assertIn(needle, findings[0][3])
        return findings


# ---------------------------------------------------------------------------
# Taint sources reaching allocation sinks.
# ---------------------------------------------------------------------------

class TestAllocationSinks(WireCase):
    def test_replayed_peer_event_count_finding(self):
        # The real bug: broker/event.cpp trusted a u16 target count
        # straight off the wire, reserving up to 65535 * 4 bytes for a
        # frame that could be 3 bytes long.
        self.tree.write("src/broker/event.cpp", """
void decode_peer(ByteReader& r, PeerEvent& f) {
  std::uint16_t n = r.u16();
  f.targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) f.targets.push_back(r.u32());
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["wire", "wire"])
        self.assertIn("drives an allocation size", findings[0][3])
        self.assertIn("bounds this loop", findings[1][3])

    def test_tainted_resize_is_flagged(self):
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  out.resize(len);
}
""")
        self.assert_flagged("drives an allocation size")

    def test_tainted_bytes_ctor_is_flagged(self):
        self.tree.write("src/rtp/decode.cpp", """
Bytes decode(ByteReader& r) {
  std::uint32_t len = r.u32();
  return Bytes(len);
}
""")
        self.assert_flagged("drives an allocation size")

    def test_tainted_bytewriter_reserve_is_flagged(self):
        self.tree.write("src/broker/encode.cpp", """
void relay(ByteReader& r) {
  std::uint32_t claimed = r.u32();
  ByteWriter w(claimed);
  w.u8(1);
}
""")
        self.assert_flagged("drives an allocation size")

    def test_tainted_array_new_is_flagged(self):
        self.tree.write("src/h323/decode.cpp", """
void decode(ByteReader& r) {
  std::uint32_t n = r.u32();
  auto* slots = new std::uint32_t[n];
  use(slots);
}
""")
        self.assert_flagged("drives an allocation size")


# ---------------------------------------------------------------------------
# Non-allocation sinks: loops, indexing, slice.
# ---------------------------------------------------------------------------

class TestOtherSinks(WireCase):
    def test_tainted_loop_bound_is_flagged(self):
        self.tree.write("src/h323/decode.cpp", """
void decode(ByteReader& r, Msg& m) {
  std::uint8_t ncaps = r.u8();
  for (std::size_t i = 0; i < ncaps; ++i) m.caps.push_back(r.u8());
}
""")
        self.assert_flagged("bounds this loop")

    def test_tainted_while_bound_is_flagged(self):
        self.tree.write("src/h323/decode.cpp", """
void decode(ByteReader& r, Msg& m) {
  std::uint8_t n = r.u8();
  while (n--) m.caps.push_back(r.u8());
}
""")
        self.assert_flagged("bounds this loop")

    def test_tainted_index_is_flagged(self):
        self.tree.write("src/streaming/decode.cpp", """
void decode(ByteReader& r, Table& table) {
  std::uint16_t idx = r.u16();
  table.entries[idx] = 1;
}
""")
        self.assert_flagged("indexes a container")

    def test_tainted_slice_offset_is_flagged(self):
        self.tree.write("src/broker/decode.cpp", """
void decode(ByteReader& r, const Payload& frame, Event& e) {
  std::uint32_t len = r.u32();
  e.payload = frame.slice(0, len);
}
""")
        self.assert_flagged("reaches Payload::slice")


# ---------------------------------------------------------------------------
# Sanitizers: dominating guards and born-sanitized reads.
# ---------------------------------------------------------------------------

class TestSanitizers(WireCase):
    def test_remaining_guard_sanitizes(self):
        self.tree.write("src/broker/decode.cpp", """
void decode(ByteReader& r, PeerEvent& f) {
  std::uint16_t n = r.u16();
  if (std::size_t{4} * n > r.remaining()) return;
  f.targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) f.targets.push_back(r.u32());
}
""")
        self.assert_clean()

    def test_protocol_max_constant_guard_sanitizes(self):
        self.tree.write("src/h323/decode.cpp", """
void decode(ByteReader& r, Msg& m) {
  std::uint8_t n = r.u8();
  if (n > kMaxCapabilities) return;
  m.caps.reserve(n);
}
""")
        self.assert_clean()

    def test_integer_literal_guard_sanitizes(self):
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  if (len > 1500) return;
  out.resize(len);
}
""")
        self.assert_clean()

    def test_zero_comparison_does_not_sanitize(self):
        # `n > 0` admits every hostile value; it is not an upper bound.
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  if (len > 0) {
    out.resize(len);
  }
}
""")
        self.assert_flagged("drives an allocation size")

    def test_std_min_clamp_is_born_sanitized(self):
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::size_t len = std::min<std::size_t>(r.u32(), r.remaining());
  out.resize(len);
}
""")
        self.assert_clean()

    def test_read_len_bounded_is_born_sanitized(self):
        self.tree.write("src/broker/decode.cpp", """
void decode(ByteReader& r, const Payload& frame, Event& e) {
  auto len = r.read_len_bounded(r.remaining());
  if (!len.ok()) return;
  std::size_t at = r.position();
  e.payload = frame.slice(at, len.value());
}
""")
        self.assert_clean()

    def test_read_count_is_born_sanitized(self):
        self.tree.write("src/broker/decode.cpp", """
void decode(ByteReader& r, PeerEvent& f) {
  auto n = r.read_count_u16(4);
  if (!n.ok()) return;
  f.targets.reserve(n.value());
  for (std::size_t i = 0; i < n.value(); ++i) f.targets.push_back(r.u32());
}
""")
        self.assert_clean()

    def test_guard_only_dominates_later_uses(self):
        # The sink precedes the guard: textual dominance must not credit
        # a check that runs after the allocation already happened.
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  out.resize(len);
  if (len > r.remaining()) return;
}
""")
        self.assert_flagged("drives an allocation size")

    def test_self_guarded_loop_condition_is_clean(self):
        self.tree.write("src/h323/decode.cpp", """
void decode(ByteReader& r, Msg& m) {
  std::uint8_t n = r.u8();
  for (std::size_t i = 0; i < n && i < kMaxCapabilities; ++i) {
    m.caps.push_back(r.u8());
  }
}
""")
        self.assert_clean()


# ---------------------------------------------------------------------------
# The frame-bounded lattice point: cursor-derived values are not tainted.
# ---------------------------------------------------------------------------

class TestFrameBounded(WireCase):
    def test_remaining_and_rest_are_not_tainted(self):
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::size_t len = r.remaining();
  out.resize(len);
  out.resize(r.rest().size());
}
""")
        self.assert_clean()

    def test_position_into_slice_is_clean(self):
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, const Payload& frame, Packet& p) {
  std::size_t at = r.position();
  p.payload = frame.slice(at, r.rest().size());
}
""")
        self.assert_clean()


# ---------------------------------------------------------------------------
# Taint propagation: assignment chains, helpers, call sites.
# ---------------------------------------------------------------------------

class TestPropagation(WireCase):
    def test_taint_flows_through_assignment_chain(self):
        self.tree.write("src/broker/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t raw = r.u32();
  std::size_t len = raw;
  std::size_t padded = len + 4;
  out.resize(padded);
}
""")
        self.assert_flagged("drives an allocation size")

    def test_masked_value_stays_tainted(self):
        # b0 & 0x1F still ranges to 31: masking narrows, it does not bound
        # against the frame. The rtcp report-block finding depends on this.
        self.tree.write("src/rtp/rtcp_decode.cpp", """
void decode(ByteReader& r, Rtcp& p) {
  std::uint8_t b0 = r.u8();
  std::size_t count = b0 & 0x1F;
  p.reports.reserve(count);
}
""")
        self.assert_flagged("drives an allocation size")

    def test_taint_through_helper_return(self):
        # decode_count() returns a raw read; its callers inherit the taint.
        self.tree.write("src/h323/decode.cpp", """
static std::uint32_t decode_count(ByteReader& r) {
  return r.u32();
}
void decode(ByteReader& r, Msg& m) {
  std::uint32_t n = decode_count(r);
  m.caps.reserve(n);
}
""")
        self.assert_flagged("drives an allocation size")

    def test_helper_returning_bounded_read_is_clean(self):
        self.tree.write("src/h323/decode.cpp", """
static std::size_t decode_count(ByteReader& r) {
  return std::min<std::size_t>(r.u32(), r.remaining());
}
void decode(ByteReader& r, Msg& m) {
  std::size_t n = decode_count(r);
  m.caps.reserve(n);
}
""")
        self.assert_clean()

    def test_tainted_argument_to_sinking_param_is_flagged(self):
        self.tree.write("src/broker/decode.cpp", """
static void grow(Bytes& out, std::size_t len) {
  out.resize(len);
}
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  grow(out, len);
}
""")
        self.assert_flagged("unguarded size/bound")

    def test_guarded_argument_to_sinking_param_is_clean(self):
        self.tree.write("src/broker/decode.cpp", """
static void grow(Bytes& out, std::size_t len) {
  out.resize(len);
}
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  if (len > r.remaining()) return;
  grow(out, len);
}
""")
        self.assert_clean()


# ---------------------------------------------------------------------------
# The wrap rule: guard arithmetic must not overflow before comparing.
# ---------------------------------------------------------------------------

class TestWrapRule(WireCase):
    def test_narrow_guard_multiplication_is_flagged(self):
        # n * 4 on a uint16 wraps at 16384; the guard passes and the
        # attack sails through.
        self.tree.write("src/broker/decode.cpp", """
void decode(ByteReader& r, PeerEvent& f) {
  std::uint16_t n = r.u16();
  if (n * 4 > r.remaining()) return;
  f.targets.reserve(n);
}
""")
        self.assert_flagged("can wrap before the comparison")

    def test_widened_guard_multiplication_is_clean(self):
        self.tree.write("src/broker/decode.cpp", """
void decode(ByteReader& r, PeerEvent& f) {
  std::uint16_t n = r.u16();
  if (std::size_t{4} * n > r.remaining()) return;
  f.targets.reserve(n);
}
""")
        self.assert_clean()

    def test_kconstant_operand_widens(self):
        self.tree.write("src/rtp/rtcp_decode.cpp", """
void decode(ByteReader& r, Rtcp& p) {
  std::uint8_t b0 = r.u8();
  std::size_t count = b0 & 0x1F;
  if (kReportBlockBytes * count > r.remaining()) return;
  p.reports.reserve(count);
}
""")
        self.assert_clean()


# ---------------------------------------------------------------------------
# The text half: throwing/unbounded numeric parses.
# ---------------------------------------------------------------------------

class TestTextParses(WireCase):
    def test_std_stoi_is_flagged(self):
        self.tree.write("src/sip/parse.cpp", """
int cseq(const std::string& value) {
  return std::stoi(value);
}
""")
        self.assert_flagged("throwing/unbounded numeric parse 'stoi'")

    def test_strtoul_is_flagged(self):
        self.tree.write("src/streaming/parse.cpp", """
unsigned long port(const char* s) {
  return strtoul(s, nullptr, 10);
}
""")
        self.assert_flagged("throwing/unbounded numeric parse 'strtoul'")

    def test_gmmcs_parse_helpers_are_clean(self):
        self.tree.write("src/sip/parse.cpp", """
int cseq(const std::string& value) {
  return static_cast<int>(parse_u32(value).value_or(0));
}
""")
        self.assert_clean()

    def test_sto_in_comment_is_ignored(self):
        self.tree.write("src/sip/parse.cpp", """
// The pre-fix code used std::stoi(value) here and threw on overflow.
int cseq(const std::string& value) {
  return static_cast<int>(parse_u32(value).value_or(0));
}
""")
        self.assert_clean()


# ---------------------------------------------------------------------------
# Scope and suppression.
# ---------------------------------------------------------------------------

class TestScope(WireCase):
    def test_sim_module_is_trusted(self):
        # Spec files and bench configs are local artifacts, not peer bytes.
        self.tree.write("src/sim/config.cpp", """
int parse(const std::string& v) {
  return std::stoi(v);
}
""")
        self.assert_clean()

    def test_bytes_primitive_layer_is_exempt(self):
        # The checked-read plane itself reads raw integers by definition.
        self.tree.write("src/common/bytes.cpp", """
std::size_t ByteReader::read_len(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  out.resize(len);
  return len;
}
""")
        self.assert_clean()

    def test_suppression_with_reason_silences(self):
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  // gmmcs-lint: allow(wire): len is re-checked by the caller's framing
  out.resize(len);
}
""")
        self.assert_clean()

    def test_suppression_without_reason_is_flagged_by_meta_rule(self):
        self.tree.write("src/rtp/decode.cpp", """
void decode(ByteReader& r, Bytes& out) {
  std::uint32_t len = r.u32();
  // gmmcs-lint: allow(wire)
  out.resize(len);
}
""")
        src = self.tree.sources()[0]
        meta = gmmcs_lint.check_suppression_reasons(src)
        self.assertEqual(self.rules(meta), ["suppression-reason"])


if __name__ == "__main__":
    unittest.main()
