// Shared types of the benchmark's workloads.
//
// A workload runs in rounds. One round builds a fresh deployment from the
// seed, settles it (setup), runs its traffic for a fixed simulated span,
// drains, and checks every output with the oracle. Rounds of one seed are
// identical in simulated time, so the simulated metrics repeat exactly and
// the host-time figures are medians over rounds.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "broker/subscription_index.hpp"
#include "common/payload.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace perfbench {

/// Frames and filters captured from a traced round's own traffic; the
/// per-layer micro timings replay them through the layers' public
/// decoders and matchers.
struct Capture {
  static constexpr std::size_t kCap = 512;
  std::vector<Payload> broker_frames;        // kEvent frames seen on UDP
  std::optional<gmmcs::broker::SubscriptionIndex> index;  // a broker's table at media stop
  std::vector<std::string> xgsp_texts;       // XGSP XML carried in events
  std::vector<std::string> sip_texts;        // SIP messages
  std::vector<std::pair<int, Payload>> h323_frames;  // 0 RAS, 1 Q.931, 2 H.245
  std::uint64_t xgsp_reply_bytes = 0;        // XGSP reply payload bytes seen
  std::uint64_t xgsp_replies = 0;

  /// Each keeps an application frame seen at a host's ingress hook while
  /// its list is not yet full. A UDP broker frame (kEvent only):
  void broker_datagram(const gmmcs::sim::Datagram& d);
  /// A stream data segment carrying an XGSP event (request, reply or
  /// notification); counts reply bytes.
  void xgsp_message(const gmmcs::sim::Datagram& d);
  /// A stream data segment carrying a SIP message.
  void sip_message(const gmmcs::sim::Datagram& d);
};

struct RoundOut {
  // Host time (CPU seconds of the simulation thread).
  double setup_s = 0;
  double measured_s = 0;
  /// Machine speed during the measured phase relative to the nominal one,
  /// from reference slices interleaved with it (run_measured).
  double speed = 1;
  double ref_s = 0;
  std::uint64_t ref_slices = 0;
  std::uint64_t ref_allocs = 0;  // made by the reference slices; not the program's
  // Work completed in the measured phase.
  std::uint64_t deliveries = 0;      // media events handed to subscriber applications
  std::uint64_t signaling_ops = 0;   // completed joins and leaves
  std::uint64_t cycles = 0;          // completed join→leave cycles
  std::uint64_t attempted = 0;       // expected deliveries + joins/leaves started
  std::uint64_t failed = 0;
  // Simulated figures.
  std::vector<std::int64_t> delays_ns;
  double jitter_ms = 0;
  std::vector<std::int64_t> join_ns;
  std::map<std::string, std::vector<std::int64_t>> join_ns_by_path;
  Failures failures;
  // Layer counters (deterministic) and, in traced rounds, layer costs.
  std::map<std::string, double> layer;
  std::uint64_t allocs_measured = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t signature = 0;  // digest of the simulated outputs
};

struct Params {
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;    // null: untraced round
  Capture* capture = nullptr;  // traced rounds only
};

RoundOut run_lecture(const Params& p);
RoundOut run_mesh(const Params& p);
RoundOut run_signaling(const Params& p);

/// One reference slice, in host CPU seconds: dependent loads over a 4 MiB
/// ring, node churn and lookups in a 64k-entry hash table and short string
/// allocations — the cache-, pointer- and allocator-bound mix the
/// simulation is made of. Its state is built on the first call, which
/// main() makes before any round.
double reference_slice();

/// Runs `loop` for `span` of simulated time (a zero span: until it drains)
/// in 200 ms slices, adding the host CPU seconds to out.measured_s. After
/// every slice it times one reference slice (fixed host work that shares
/// no code with the program, excluded from measured_s and from the trace)
/// and updates out.speed; see README.md, "Host time".
void run_measured(gmmcs::sim::EventLoop& loop, gmmcs::SimDuration span, RoundOut& out,
                  Tracer* tracer);

/// Nearest-rank percentile (q in [0, 1]) of `v`, in milliseconds.
double percentile_ms(std::vector<std::int64_t> v, double q);
/// Order-sensitive digest for the determinism check.
std::uint64_t mix(std::uint64_t h, std::uint64_t v);

}  // namespace perfbench
