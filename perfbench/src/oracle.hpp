// Correctness oracle of the benchmark, computed apart from the program.
//
// Media: the benchmark records every RTP packet as it is published (a
// checksum, its size, its RTP sequence number and loop.now()) and every
// packet a subscriber application receives. verify() then checks, from
// those records alone:
//   * each subscriber receives every packet published while its membership
//     was settled exactly once (MediaOracle::expect windows);
//   * every received packet is intact (size and checksum match the send);
//   * packets of one publisher arrive at one subscriber in send order;
//   * no simulated delay is below the bound the workload computes from its
//     own PathConfig and NicConfig, or above the guard that justifies the
//     membership windows.
// The per-packet delays and the RFC 3550 jitter it derives are the
// benchmark's end-to-end figures; compare_probe() checks them against the
// program's own media::MediaProbe.
//
// Signaling: every request the benchmark sends must be answered, and the
// final state must be clean (empty rosters, no admitted H.323 bandwidth).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/payload.hpp"
#include "common/time.hpp"
#include "xgsp/session.hpp"

namespace perfbench {

using gmmcs::Payload;
using gmmcs::SimDuration;
using gmmcs::SimTime;

/// 64-bit FNV-1a.
std::uint64_t checksum(std::span<const std::uint8_t> bytes);

/// Collects failure descriptions; keeps the first few verbatim.
class Failures {
 public:
  void add(const std::string& what);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool ok() const { return count_ == 0; }
  [[nodiscard]] const std::vector<std::string>& first() const { return first_; }
  void merge(const Failures& other);

 private:
  std::uint64_t count_ = 0;
  std::vector<std::string> first_;
};

class MediaOracle {
 public:
  using Rx = std::uint32_t;
  using Pub = std::uint32_t;
  /// Lower bound on the publish→application delay of a packet of
  /// `rtp_bytes` from `pub` to `rx`.
  using MinDelay = std::function<SimDuration(Rx, Pub, std::size_t rtp_bytes)>;

  Pub add_publisher(std::uint32_t ssrc, std::uint32_t clock_rate);
  Rx add_receiver();
  void set_min_delay(MinDelay fn) { min_delay_ = std::move(fn); }
  /// Every delivery must arrive within this delay; the membership windows
  /// below end this long before a leave, so a bound that held proves no
  /// in-flight packet was wrongly expected.
  void set_max_delay(SimDuration d) { max_delay_ = d; }

  /// A packet as published (RTP wire bytes).
  void on_publish(std::span<const std::uint8_t> rtp_wire, SimTime at);
  /// A packet as handed to a subscriber application. Cheap: the checks
  /// run in verify(), outside the measured phase.
  void on_delivery(Rx rx, const Payload& rtp_wire, SimTime at) {
    deliveries_[rx].push_back({rtp_wire, at});
  }
  /// rx must receive, exactly once, each packet of `pub` published in
  /// [from, to].
  void expect(Rx rx, Pub pub, SimTime from, SimTime to);

  struct PairStats {
    std::uint64_t received = 0;
    double delay_sum_ms = 0;
    double jitter_ts = 0;      // RFC 3550 estimate, timestamp units
    double jitter_ts_sum = 0;  // the estimate summed over packets
    bool have_transit = false;
    double last_transit = 0;
    std::int64_t last_index = -1;
  };

  /// Runs every check; per-packet delays land in delays_ns().
  Failures verify();

  /// Agreement with the program's MediaProbe for one (receiver, source).
  void compare_probe(Rx rx, Pub pub, std::uint64_t probe_received, double probe_mean_delay_ms,
                     double probe_jitter_ms, Failures& out) const;

  [[nodiscard]] const std::vector<std::int64_t>& delays_ns() const { return delays_ns_; }
  /// Mean over (receiver, publisher) pairs of the RFC 3550 jitter estimate
  /// averaged over each pair's packets (the final estimate alone reflects
  /// only the last ~16 packets).
  [[nodiscard]] double mean_jitter_ms() const;
  [[nodiscard]] std::uint64_t expected() const { return expected_; }
  [[nodiscard]] std::uint64_t missing() const { return missing_; }
  [[nodiscard]] std::uint64_t delivered() const;

 private:
  struct Sent {
    std::uint64_t sum;
    std::uint32_t size;
    SimTime at;
  };
  struct Publisher {
    std::uint32_t ssrc;
    std::uint32_t clock_rate;
    bool have_first = false;
    std::uint16_t first_seq = 0;
    std::vector<Sent> sent;
  };
  struct Delivery {
    Payload wire;
    SimTime at;
  };
  struct Window {
    Rx rx;
    Pub pub;
    SimTime from;
    SimTime to;
  };

  std::vector<Publisher> pubs_;
  std::unordered_map<std::uint32_t, Pub> by_ssrc_;
  std::vector<std::vector<Delivery>> deliveries_;
  std::vector<Window> windows_;
  MinDelay min_delay_;
  SimDuration max_delay_ = gmmcs::duration_s(1);
  // Results of verify().
  std::map<std::pair<Rx, Pub>, PairStats> pairs_;
  std::map<std::pair<Rx, Pub>, std::vector<bool>> seen_;
  std::vector<std::int64_t> delays_ns_;
  std::uint64_t expected_ = 0;
  std::uint64_t missing_ = 0;
};

/// Request/answer ledger of one signaling access path.
struct Ledger {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t refused = 0;
};

class SignalOracle {
 public:
  /// Records a request on an access path ("sip", "h323", ...).
  void sent(const std::string& path) { ledgers_[path].sent++; }
  /// Records its answer; `ok` false counts as a failed operation.
  void answered(const std::string& path, bool ok);
  [[nodiscard]] const std::map<std::string, Ledger>& ledgers() const { return ledgers_; }

  /// Final-state checks after the last cycle: every request answered, every
  /// roster empty, no admitted H.323 bandwidth left.
  void finish(const std::map<std::string, gmmcs::xgsp::Session>& sessions,
              std::uint32_t h323_bandwidth_in_use, Failures& out) const;

 private:
  std::map<std::string, Ledger> ledgers_;
};

}  // namespace perfbench
