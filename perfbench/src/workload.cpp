#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "broker/event.hpp"

namespace perfbench {

namespace {
// Stream data segments carry one type byte before the message
// (transport/stream.cpp); 3 is kData.
constexpr std::uint8_t kStreamData = 3;
// Keeps the reference slice's results observable.
volatile std::uint64_t g_sink = 0;
}  // namespace

void Capture::broker_datagram(const gmmcs::sim::Datagram& d) {
  // UDP broker traffic is a bare frame whose first byte is the message
  // type; kEvent (5) frames are what the routing fast path decodes.
  if (broker_frames.size() >= kCap || d.payload.size() < 2) return;
  if (d.payload[0] == static_cast<std::uint8_t>(gmmcs::broker::MessageType::kEvent)) {
    broker_frames.push_back(d.payload);
  }
}

void Capture::sip_message(const gmmcs::sim::Datagram& d) {
  if (sip_texts.size() >= kCap || d.payload.size() < 2 || d.payload[0] != kStreamData) return;
  sip_texts.emplace_back(d.payload.slice(1).str_view());
}

void Capture::xgsp_message(const gmmcs::sim::Datagram& d) {
  if (d.payload.size() < 2 || d.payload[0] != kStreamData) return;
  // XGSP requests, replies and notifications travel as reliable kEvent
  // frames on the broker streams.
  Payload msg = d.payload.slice(1);
  if (msg[0] != static_cast<std::uint8_t>(gmmcs::broker::MessageType::kEvent)) return;
  auto frame = gmmcs::broker::decode(msg);
  if (!frame.ok()) return;
  const gmmcs::broker::Event& ev = frame.value().event;
  if (ev.payload.empty() || ev.payload[0] != '<') return;
  if (ev.topic.starts_with("/xgsp/client/")) {
    xgsp_reply_bytes += ev.payload.size();
    ++xgsp_replies;
  }
  if (xgsp_texts.size() < kCap) xgsp_texts.emplace_back(ev.payload.str_view());
}

namespace {

/// CPU seconds one reference slice took on the machine the benchmark was
/// defined on (4-core container, GCC 12, -O3) while other tenants left it
/// alone; it only fixes the scale of the reported host-time figures.
constexpr double kReferenceSliceNominal_s = 0.0024;

}  // namespace

double reference_slice() {
  struct State {
    std::vector<std::uint32_t> ring;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::uint32_t at = 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t next() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    }
    std::vector<std::uint64_t> keys;  // insertion order, oldest first
    std::size_t oldest = 0;
    std::vector<std::string> strings;
    State() : ring(1u << 20), keys(1u << 16), strings(64) {
      for (std::uint32_t i = 0; i < ring.size(); ++i) ring[i] = i;
      // Sattolo's shuffle: a single cycle through every slot.
      for (auto i = static_cast<std::uint32_t>(ring.size() - 1); i > 0; --i) {
        std::swap(ring[i], ring[next() % i]);
      }
      for (auto& k : keys) {
        k = next();
        table.emplace(k, k);
      }
    }
  };
  static State s;
  double t0 = cpu_seconds();
  std::uint64_t acc = 0;
  for (int i = 0; i < 8192; ++i) s.at = s.ring[s.at];
  for (int i = 0; i < 2048; ++i) {
    // Replace the oldest key: one node freed, one allocated, as the
    // simulation's maps and queues churn.
    std::uint64_t& k = s.keys[s.oldest];
    s.oldest = (s.oldest + 1) % s.keys.size();
    s.table.erase(k);
    k = s.next();
    s.table.emplace(k, k);
    acc += s.table.count(s.next()) + s.table.count(s.keys[(s.oldest + i * 7) % s.keys.size()]);
  }
  for (int i = 0; i < 2048; ++i) {
    s.strings[s.next() & 63] = std::string(24 + (s.next() & 31), 'x');
  }
  g_sink = acc + s.at + s.strings[7].size();
  return cpu_seconds() - t0;
}

void run_measured(gmmcs::sim::EventLoop& loop, gmmcs::SimDuration span, RoundOut& out,
                  Tracer* tracer) {
  const gmmcs::SimDuration slice = gmmcs::duration_ms(200);
  const gmmcs::SimTime end = loop.now() + span;
  bool more = true;
  while (more) {
    double t0 = cpu_seconds();
    if (span.ns() == 0) {
      loop.run();
      more = false;
    } else {
      loop.run_until(std::min(end, loop.now() + slice));
      more = loop.now() < end;
    }
    out.measured_s += cpu_seconds() - t0;
    if (tracer != nullptr) tracer->pause();
    std::uint64_t a = allocations();
    out.ref_s += reference_slice();
    out.ref_allocs += allocations() - a;
    ++out.ref_slices;
    if (tracer != nullptr) tracer->resume();
  }
  out.speed = static_cast<double>(out.ref_slices) * kReferenceSliceNominal_s / out.ref_s;
}

double percentile_ms(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]) * 1e-6;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace perfbench
