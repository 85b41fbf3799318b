// Host-CPU microbench of the broker routing fast path (not a simulation:
// this measures the real matching + fan-out work the simulator pays per
// routed event, the overhead the SubscriptionIndex + encode-once path
// removes).
//
// Two comparisons, at 10/100/400/1000 subscribers, exact-only and with a
// wildcard mix:
//
//  * topic matching: the pre-index O(subscribers x filters) scan vs the
//    exact-topic hash index with its per-topic match cache;
//  * full fan-out: per-recipient Event copy + encode() (the old copy jobs)
//    vs one shared RoutedEvent whose wire frame is encoded once and only
//    byte-copied per recipient.
//
// The host-timed rates and speedups go to the console table only;
// BENCH_routing_fanout.json keeps the deterministic fields (encodes per
// delivery, payload copies), so regenerating it leaves the file unchanged.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "broker/event.hpp"
#include "broker/subscription_index.hpp"
#include "broker/topic.hpp"
#include "common/payload.hpp"

namespace {

using namespace gmmcs;
using namespace gmmcs::broker;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPayloadBytes = 1200;  // ~one 600 Kbps video packet
const std::string kTopic = "/xgsp/session/42/video/1";

/// The pre-index matcher: every subscriber, every filter, full segment
/// comparison per published event (the seed BrokerNode::local_matches).
struct NaiveTable {
  std::vector<std::pair<std::uint32_t, std::vector<TopicFilter>>> subs;

  [[nodiscard]] std::vector<std::uint32_t> matches(const std::string& topic) const {
    std::vector<std::uint32_t> out;
    for (const auto& [id, filters] : subs) {
      for (const auto& f : filters) {
        if (f.matches(topic)) {
          out.push_back(id);
          break;
        }
      }
    }
    return out;
  }
};

/// Filter pattern for subscriber i: mostly exact, every 10th a wildcard
/// when `wildcards` is on (a media session mix: most receivers subscribe
/// the concrete stream topic, a few monitor whole sessions).
std::string filter_for(int i, bool wildcards) {
  if (wildcards && i % 10 == 0) {
    return (i % 20 == 0) ? "/xgsp/session/42/#" : "/xgsp/session/*/video/1";
  }
  return kTopic;
}

Event make_event() {
  Event ev;
  ev.topic = kTopic;
  ev.payload = Bytes(kPayloadBytes, 0x5a);
  ev.seq = 7;
  return ev;
}

/// Each timed loop stores its result here: a volatile store is an
/// observable side effect, so the optimizer keeps the work. Namespace
/// scope, because a store-only function-local static draws
/// -Wunused-but-set-variable.
volatile std::size_t g_sink;

/// Runs `body(iters)` enough times to pass min_seconds; returns ops/sec
/// where one op = one call of body's unit of work.
template <class Body>
double rate_per_sec(double min_seconds, Body body) {
  std::size_t iters = 1;
  for (;;) {
    auto t0 = Clock::now();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < iters; ++i) sink += body();
    auto dt = std::chrono::duration<double>(Clock::now() - t0).count();
    g_sink = sink;
    if (dt >= min_seconds) return static_cast<double>(iters) / dt;
    iters = (dt <= 0) ? iters * 16 : static_cast<std::size_t>(iters * (min_seconds * 1.3 / dt)) + 1;
  }
}

struct Point {
  int subscribers = 0;
  bool wildcards = false;
  double naive_match_per_sec = 0;
  double indexed_match_per_sec = 0;
  double match_speedup = 0;
  double naive_events_per_sec = 0;
  double fast_events_per_sec = 0;
  double fanout_speedup = 0;
  double naive_encodes_per_delivery = 0;
  double fast_encodes_per_delivery = 0;
  std::uint64_t fast_payload_copies = 0;
  std::uint64_t fast_payload_bytes_copied = 0;
};

Point run_point(int n, bool wildcards) {
  Point p;
  p.subscribers = n;
  p.wildcards = wildcards;

  NaiveTable naive;
  SubscriptionIndex index;
  for (int i = 0; i < n; ++i) {
    auto id = static_cast<std::uint32_t>(i + 1);
    TopicFilter f(filter_for(i, wildcards));
    naive.subs.push_back({id, {f}});
    index.subscribe(id, f);
  }

  // --- Matching only ---
  p.naive_match_per_sec = rate_per_sec(0.2, [&] { return naive.matches(kTopic).size(); });
  p.indexed_match_per_sec = rate_per_sec(0.2, [&] { return index.matches(kTopic).size(); });
  p.match_speedup = p.indexed_match_per_sec / p.naive_match_per_sec;

  // --- Full fan-out: route one event to every match ---
  const Event ev = make_event();

  std::uint64_t enc0 = event_encode_count();
  std::uint64_t naive_events = 0, naive_deliveries = 0;
  p.naive_events_per_sec = rate_per_sec(0.3, [&] {
    ++naive_events;
    std::size_t bytes = 0;
    for (std::uint32_t id : naive.matches(kTopic)) {
      Event per_recipient = ev;  // the old per-copy-job Event capture
      per_recipient.publisher = id;
      bytes += encode(per_recipient).size();  // per-recipient re-encode
      ++naive_deliveries;
    }
    return bytes;
  });
  p.naive_encodes_per_delivery =
      static_cast<double>(event_encode_count() - enc0) / static_cast<double>(naive_deliveries);

  enc0 = event_encode_count();
  std::uint64_t cp0 = payload_copy_count();
  std::uint64_t cb0 = payload_bytes_copied();
  std::uint64_t fast_events = 0, fast_deliveries = 0;
  p.fast_events_per_sec = rate_per_sec(0.3, [&] {
    ++fast_events;
    RoutedEvent routed(ev);  // shared by the whole fan-out
    std::size_t bytes = 0;
    for (std::uint32_t id : index.matches(kTopic)) {
      (void)id;
      const Payload wire = routed.wire();  // per-recipient handle: refcount bump only
      bytes += wire.size();
      ++fast_deliveries;
    }
    return bytes;
  });
  p.fast_encodes_per_delivery =
      static_cast<double>(event_encode_count() - enc0) / static_cast<double>(fast_deliveries);
  // Copy-discipline witness: the shared-frame fan-out must not deep-copy
  // payload bytes, however wide the fan-out.
  p.fast_payload_copies = payload_copy_count() - cp0;
  p.fast_payload_bytes_copied = payload_bytes_copied() - cb0;
  p.fanout_speedup = p.fast_events_per_sec / p.naive_events_per_sec;
  return p;
}

}  // namespace

int main() {
  std::printf("=== Routing fast path microbench (host CPU, payload %zu B) ===\n", kPayloadBytes);
  std::printf("%6s %5s | %14s %14s %8s | %14s %14s %8s | %9s %9s\n", "subs", "wild",
              "naive match/s", "index match/s", "speedup", "naive evt/s", "fast evt/s", "speedup",
              "enc/del", "enc/del");
  std::vector<Point> points;
  for (bool wildcards : {false, true}) {
    for (int n : {10, 100, 400, 1000}) {
      Point p = run_point(n, wildcards);
      points.push_back(p);
      std::printf("%6d %5s | %14.0f %14.0f %7.1fx | %14.0f %14.0f %7.1fx | %9.4f %9.4f\n",
                  p.subscribers, p.wildcards ? "yes" : "no", p.naive_match_per_sec,
                  p.indexed_match_per_sec, p.match_speedup, p.naive_events_per_sec,
                  p.fast_events_per_sec, p.fanout_speedup, p.naive_encodes_per_delivery,
                  p.fast_encodes_per_delivery);
    }
  }

  FILE* json = std::fopen("BENCH_routing_fanout.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"routing_fanout\",\n  \"payload_bytes\": %zu,\n",
                 kPayloadBytes);
    std::fprintf(json, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(json,
                   "    {\"subscribers\": %d, \"wildcards\": %s, "
                   "\"naive_encodes_per_delivery\": %.4f, \"fast_encodes_per_delivery\": %.4f, "
                   "\"fast_payload_copies\": %llu, \"fast_payload_bytes_copied\": %llu}%s\n",
                   p.subscribers, p.wildcards ? "true" : "false", p.naive_encodes_per_delivery,
                   p.fast_encodes_per_delivery,
                   static_cast<unsigned long long>(p.fast_payload_copies),
                   static_cast<unsigned long long>(p.fast_payload_bytes_copied),
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_routing_fanout.json\n");
  }
  return 0;
}
