// The Global-MMCS benchmark's entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <dir>]
//
// Runs whole rounds of one workload (see workload.hpp) until `seconds` of
// wall time have passed, checks every round with the oracle, and prints as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 rounds alternate untraced and traced and the metrics are the
// per-layer ones (plus the tracing overhead between the two kinds).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "broker/event.hpp"
#include "h323/messages.hpp"
#include "sip/message.hpp"
#include "trace.hpp"
#include "workload.hpp"
#include "xgsp/messages.hpp"

using namespace perfbench;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double a, double b) {
  return b == 0 ? 0 : a / b;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Median over five repetitions of the host ns one call of `f(i)` takes,
/// cycling i over [0, n). Each repetition runs for at least 5 ms.
double ns_per_call(std::size_t n, const std::function<bool(std::size_t)>& f) {
  if (n == 0) return 0;
  std::vector<double> reps;
  volatile std::size_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    std::size_t calls = 0;
    std::size_t ok = 0;
    double start = wall_seconds();
    double elapsed = 0;
    do {
      for (std::size_t i = 0; i < n; ++i) ok += f(i) ? 1 : 0;
      calls += n;
      elapsed = wall_seconds() - start;
    } while (elapsed < 0.005);
    sink = sink + ok;
    reps.push_back(elapsed * 1e9 / static_cast<double>(calls));
  }
  return median(reps);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload lecture_fanout|session_mesh|conference_signaling "
               "--seed N --seconds S --trace 0|1 [--trace-out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  const std::map<std::string, std::function<RoundOut(const Params&)>> workloads = {
      {"lecture_fanout", run_lecture},
      {"session_mesh", run_mesh},
      {"conference_signaling", run_signaling},
  };
  auto wit = workloads.find(workload);
  if (wit == workloads.end() || seconds <= 0 || (trace != 0 && trace != 1)) return usage();

  std::vector<RoundOut> plain;
  std::vector<RoundOut> traced;
  std::vector<Tracer::Totals> totals;
  std::vector<std::size_t> pending_peaks;
  Capture capture;
  double first_peak_rss_mb = 0;
  reference_slice();  // builds the reference state outside any round
  double start = wall_seconds();
  for (int k = 0;; ++k) {
    bool traced_round = trace == 1 && k % 2 == 1;
    Tracer tracer;
    Capture round_capture;
    Params params{.seed = seed,
                  .tracer = traced_round ? &tracer : nullptr,
                  .capture = traced_round ? &round_capture : nullptr};
    RoundOut r = wit->second(params);
    if (traced_round) {
      totals.push_back(tracer.totals());
      pending_peaks.push_back(tracer.pending_peak());
      if (traced.empty()) {
        capture = std::move(round_capture);
        if (!trace_out.empty()) {
          tracer.write(trace_out + "/" + workload + "-seed" + std::to_string(seed) + ".csv");
        }
      }
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
      // The peak after the first round: later rounds repeat its work, and
      // allocator reuse across rounds would only add noise to the figure.
      if (plain.size() == 1) first_peak_rss_mb = peak_rss_mb();
    }
    bool enough = !plain.empty() && (trace == 0 || !traced.empty());
    if (enough && wall_seconds() - start >= seconds) break;
  }

  // Oracle verdicts and the determinism check: every round of one seed
  // must reproduce the first round's simulated outputs exactly.
  Failures failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const RoundOut& first = plain.front();
  for (const auto* rounds : {&plain, &traced}) {
    for (const RoundOut& r : *rounds) {
      failures.merge(r.failures);
      attempted += r.attempted;
      failed += r.failed;
      if (r.signature != first.signature || r.attempted != first.attempted) {
        failures.add("round results differ from the first round's (nondeterministic)");
      }
    }
  }
  std::printf("perfbench %s seed=%llu rounds=%zu+%zu traced\n", workload.c_str(),
              static_cast<unsigned long long>(seed), plain.size(), traced.size());
  std::printf("  per round: deliveries=%llu attempted=%llu signaling_ops=%llu cycles=%llu "
              "datagrams=%llu allocs_per_datagram=%.4f\n",
              static_cast<unsigned long long>(first.deliveries),
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.signaling_ops),
              static_cast<unsigned long long>(first.cycles),
              static_cast<unsigned long long>(first.datagrams),
              ratio(static_cast<double>(first.allocs_measured), static_cast<double>(first.datagrams)));
  std::printf("  untraced rounds, host seconds setup/measured and machine speed:");
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::printf(" %.4f/%.4f/%.3f", plain[i].setup_s, plain[i].measured_s, plain[i].speed);
  }
  std::printf("\n");
  for (const std::string& f : failures.first()) std::printf("  FAILED: %s\n", f.c_str());
  if (failures.count() > failures.first().size()) {
    std::printf("  ... %llu failures in all\n", static_cast<unsigned long long>(failures.count()));
  }

  std::vector<Metric> metrics;
  if (trace == 0) {
    // Host-time figures at the machine's nominal speed (see run_measured);
    // the raw rate is in the report above.
    std::vector<double> setup, deliveries, ops, raw;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const RoundOut& r = plain[i];
      setup.push_back(r.setup_s * r.speed);
      raw.push_back(ratio(static_cast<double>(r.deliveries), r.measured_s));
      deliveries.push_back(raw.back() / r.speed);
      ops.push_back(ratio(static_cast<double>(r.cycles), r.measured_s) / r.speed);
    }
    std::printf("  deliveries per host second before speed scaling: %.1f\n", median(raw));
    metrics = {
        {"setup_s", median(setup), "s"},
        {"deliveries_per_s", median(deliveries), "1/s"},
        {"signaling_ops_per_s", median(ops), "1/s"},
        {"peak_rss_mb", first_peak_rss_mb, "MB"},
        {"delay_p50_ms", percentile_ms(first.delays_ns, 0.50), "ms"},
        {"delay_p99_ms", percentile_ms(first.delays_ns, 0.99), "ms"},
        {"jitter_ms", first.jitter_ms, "ms"},
        {"join_p50_ms", percentile_ms(first.join_ns, 0.50), "ms"},
        {"join_p99_ms", percentile_ms(first.join_ns, 0.99), "ms"},
    };
  } else {
    const RoundOut& t0 = traced.front();
    auto L = [&](const char* key) {
      auto it = t0.layer.find(key);
      return it == t0.layer.end() ? 0.0 : it->second;
    };
    // Per-round host cost of one layer, divided by a count; median over
    // traced rounds.
    auto per = [&](Layer layer, bool allocs, double count) {
      std::vector<double> v;
      for (const auto& t : totals) {
        auto i = static_cast<std::size_t>(layer);
        v.push_back(ratio(static_cast<double>(allocs ? t.allocs[i] : t.ns[i]), count));
      }
      return median(v);
    };
    double events = L("sim.events");
    auto deliveries = static_cast<double>(t0.deliveries);
    double events_in = L("broker.events_in");
    std::vector<double> publish_ns, plain_s, traced_s, allocs_per_dg;
    for (const RoundOut& r : traced) {
      publish_ns.push_back(r.layer.contains("client.publish_ns") ? r.layer.at("client.publish_ns") : 0);
      traced_s.push_back(r.measured_s);
    }
    for (const RoundOut& r : plain) {
      plain_s.push_back(r.measured_s);
      allocs_per_dg.push_back(ratio(static_cast<double>(r.allocs_measured), static_cast<double>(r.datagrams)));
    }
    auto join_p50 = [&](const char* path) {
      auto it = t0.join_ns_by_path.find(path);
      return it == t0.join_ns_by_path.end() ? 0.0 : percentile_ms(it->second, 0.5);
    };

    // Micro timings over frames captured from this workload's own traffic.
    std::vector<std::string> topics;
    for (const Payload& f : capture.broker_frames) {
      auto d = gmmcs::broker::decode(f);
      if (d.ok()) topics.push_back(d.value().event.topic);
    }
    double decode_ns = ns_per_call(capture.broker_frames.size(), [&](std::size_t i) {
      return gmmcs::broker::decode(capture.broker_frames[i]).ok();
    });
    double match_ns = 0;
    if (capture.index) {
      const gmmcs::broker::SubscriptionIndex& idx = *capture.index;
      match_ns = ns_per_call(topics.size(), [&](std::size_t i) { return !idx.matches(topics[i]).empty(); });
    }
    double xgsp_parse_ns = ns_per_call(capture.xgsp_texts.size(), [&](std::size_t i) {
      return gmmcs::xgsp::Message::parse(capture.xgsp_texts[i]).ok();
    });
    double sip_parse_ns = ns_per_call(capture.sip_texts.size(), [&](std::size_t i) {
      return gmmcs::sip::SipMessage::parse(capture.sip_texts[i]).ok();
    });
    double h323_decode_ns = ns_per_call(capture.h323_frames.size(), [&](std::size_t i) {
      const auto& [kind, frame] = capture.h323_frames[i];
      switch (kind) {
        case 0: return gmmcs::h323::RasMessage::decode(frame).ok();
        case 1: return gmmcs::h323::Q931Message::decode(frame).ok();
        default: return gmmcs::h323::H245Message::decode(frame).ok();
      }
    });

    std::vector<double> peaks(pending_peaks.begin(), pending_peaks.end());
    double signaling_ops = static_cast<double>(t0.signaling_ops);
    metrics = {
        {"sim.events", events, "count"},
        {"sim.events_per_delivery", ratio(events, deliveries), "ratio"},
        {"sim.self_ns_per_event", per(Layer::kSim, false, events), "ns"},
        {"sim.allocs_per_datagram", per(Layer::kSim, true, static_cast<double>(t0.datagrams)), "ratio"},
        {"sim.pending_peak", median(peaks), "count"},
        {"sim.nic_backlog_ms", L("sim.nic_backlog_ms"), "ms"},
        {"sim.datagrams", static_cast<double>(t0.datagrams), "count"},
        {"sim.nic_dropped", L("sim.nic_dropped"), "count"},
        {"broker.encodes_per_event", L("broker.encodes_per_event"), "ratio"},
        {"broker.decode_ns", decode_ns, "ns"},
        {"broker.events_in", events_in, "count"},
        {"broker.peer_forwards", L("broker.peer_forwards"), "count"},
        {"broker.match_cache_hit_ratio", L("broker.match_cache_hit_ratio"), "ratio"},
        {"broker.self_ns_per_event_in", per(Layer::kBroker, false, events_in), "ns"},
        {"broker.allocs_per_event_in", per(Layer::kBroker, true, events_in), "ratio"},
        {"broker.match_ns", match_ns, "ns"},
        {"broker.dispatch_wait_ms", L("broker.dispatch_wait_ms"), "ms"},
        {"broker.copies", L("broker.copies"), "count"},
        {"broker.jobs_dropped", L("broker.jobs_dropped"), "count"},
        {"client.self_ns_per_delivery", per(Layer::kClient, false, deliveries), "ns"},
        {"client.allocs_per_delivery", per(Layer::kClient, true, deliveries), "ratio"},
        {"client.publish_ns", median(publish_ns), "ns"},
        {"xgsp.self_ns_per_request", per(Layer::kXgsp, false, L("xgsp.requests")), "ns"},
        {"xgsp.parse_ns", xgsp_parse_ns, "ns"},
        {"xgsp.reply_bytes", ratio(static_cast<double>(capture.xgsp_reply_bytes),
                                   static_cast<double>(capture.xgsp_replies)), "B"},
        {"xgsp.notifications_per_op", ratio(L("xgsp.notifications"), signaling_ops), "ratio"},
        {"xgsp.join_p50_ms", join_p50("xgsp"), "ms"},
        {"sip.self_ns_per_op", per(Layer::kSip, false, L("sip.ops")), "ns"},
        {"sip.parse_ns", sip_parse_ns, "ns"},
        {"sip.join_p50_ms", join_p50("sip"), "ms"},
        {"h323.self_ns_per_op", per(Layer::kH323, false, L("h323.ops")), "ns"},
        {"h323.decode_ns", h323_decode_ns, "ns"},
        {"h323.join_p50_ms", join_p50("h323"), "ms"},
        {"soap.calls", L("soap.calls"), "count"},
        {"admire.self_ns_per_call", per(Layer::kAdmire, false, L("admire.calls")), "ns"},
        {"alloc.total_per_datagram", median(allocs_per_dg), "ratio"},
        {"trace.overhead_pct", (ratio(median(traced_s), median(plain_s)) - 1.0) * 100.0, "%"},
    };
  }
  std::fflush(stdout);
  print_result(failures.ok(), attempted, failed, metrics);
  return 0;
}
