// Self-test of the benchmark's oracle: feeds it a clean delivery sequence
// and one fault at a time (a dropped, a duplicated, a corrupted and a
// reordered delivery, a delivery faster than the path allows, an
// unanswered request, a refused request, a non-empty final roster and
// leftover H.323 bandwidth). The clean case must pass; every fault must be
// reported as failed.
//
//   perfbench_oracle_selftest   (exit status 0 when every case behaves)
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "rtp/packet.hpp"

using namespace perfbench;

namespace {

constexpr int kPackets = 6;
constexpr std::uint32_t kSsrc = 42;
const SimDuration kHop = gmmcs::duration_ms(1);

std::vector<Payload> packets() {
  std::vector<Payload> out;
  for (int i = 0; i < kPackets; ++i) {
    gmmcs::rtp::RtpPacket p;
    p.ssrc = kSsrc;
    p.sequence = static_cast<std::uint16_t>(65533 + i);  // wraps mid-stream
    p.timestamp = 160u * static_cast<std::uint32_t>(i);
    p.payload = gmmcs::Bytes(160, static_cast<std::uint8_t>(i));
    out.emplace_back(p.serialize());
  }
  return out;
}

SimTime sent_at(int i) {
  return SimTime{gmmcs::duration_ms(20).ns() * i};
}

/// Publishes the packets, then delivers `order` (indices; -1 = corrupted
/// copy of packet 2) at sent time + `delay`, and verifies.
Failures media_case(const std::vector<int>& order, SimDuration delay = kHop * 3) {
  MediaOracle o;
  MediaOracle::Pub pub = o.add_publisher(kSsrc, 8000);
  MediaOracle::Rx rx = o.add_receiver();
  o.set_min_delay([](MediaOracle::Rx, MediaOracle::Pub, std::size_t) { return kHop * 2; });
  auto ps = packets();
  for (int i = 0; i < kPackets; ++i) o.on_publish(ps[static_cast<std::size_t>(i)], sent_at(i));
  o.expect(rx, pub, sent_at(0), sent_at(kPackets - 1));
  SimTime last{0};
  for (int idx : order) {
    int i = idx < 0 ? 2 : idx;
    Payload wire = ps[static_cast<std::size_t>(i)];
    if (idx < 0) {
      gmmcs::Bytes b = wire.to_bytes();
      b.back() ^= 0xFF;
      wire = Payload(std::move(b));
    }
    last = std::max(last, sent_at(i) + delay);
    o.on_delivery(rx, wire, last);
  }
  return o.verify();
}

Failures signal_case(const std::function<void(SignalOracle&, std::map<std::string, gmmcs::xgsp::Session>&,
                                              std::uint32_t&)>& setup) {
  SignalOracle o;
  std::map<std::string, gmmcs::xgsp::Session> sessions;
  sessions.emplace("1", gmmcs::xgsp::Session("1", "t", "chair", gmmcs::xgsp::SessionMode::kAdHoc));
  std::uint32_t bandwidth = 0;
  o.sent("xgsp");
  o.answered("xgsp", true);
  setup(o, sessions, bandwidth);
  Failures f;
  o.finish(sessions, bandwidth, f);
  return f;
}

}  // namespace

int main() {
  struct Case {
    const char* name;
    bool should_fail;
    Failures result;
  };
  std::vector<Case> cases = {
      {"clean", false, media_case({0, 1, 2, 3, 4, 5})},
      {"dropped", true, media_case({0, 1, 3, 4, 5})},
      {"duplicated", true, media_case({0, 1, 2, 2, 3, 4, 5})},
      {"corrupted", true, media_case({0, 1, -1, 3, 4, 5})},
      {"reordered", true, media_case({0, 1, 3, 2, 4, 5})},
      {"below path bound", true, media_case({0, 1, 2, 3, 4, 5}, kHop)},
      {"signaling clean", false, signal_case([](auto&, auto&, auto&) {})},
      {"unanswered request", true, signal_case([](SignalOracle& o, auto&, auto&) { o.sent("sip"); })},
      {"refused request", true,
       signal_case([](SignalOracle& o, auto&, auto&) {
         o.sent("h323");
         o.answered("h323", false);
       })},
      {"non-empty roster", true,
       signal_case([](auto&, std::map<std::string, gmmcs::xgsp::Session>& s, auto&) {
         s.at("1").join(gmmcs::xgsp::Participant{.user = "alice"});
       })},
      {"admitted bandwidth", true, signal_case([](auto&, auto&, std::uint32_t& bw) { bw = 6000; })},
  };
  int bad = 0;
  for (const Case& c : cases) {
    bool failed = !c.result.ok();
    bool good = failed == c.should_fail;
    if (!good) ++bad;
    std::printf("%-20s %s (%s)\n", c.name, good ? "ok" : "WRONG",
                failed ? c.result.first().front().c_str() : "passed");
  }
  std::printf("%s\n", bad == 0 ? "oracle self-test passed" : "oracle self-test FAILED");
  return bad == 0 ? 0 : 1;
}
