#include "oracle.hpp"

#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kRtpHeader = 12;
constexpr std::size_t kKeepFailures = 8;

std::uint16_t rd16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t rd32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

std::string pair_name(std::uint32_t rx, std::uint32_t pub) {
  return "rx " + std::to_string(rx) + " pub " + std::to_string(pub);
}

}  // namespace

std::uint64_t checksum(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

void Failures::add(const std::string& what) {
  ++count_;
  if (first_.size() < kKeepFailures) first_.push_back(what);
}

void Failures::merge(const Failures& other) {
  count_ += other.count_;
  for (const auto& f : other.first_) {
    if (first_.size() < kKeepFailures) first_.push_back(f);
  }
}

MediaOracle::Pub MediaOracle::add_publisher(std::uint32_t ssrc, std::uint32_t clock_rate) {
  if (by_ssrc_.contains(ssrc)) throw std::logic_error("oracle: duplicate ssrc");
  Pub id = static_cast<Pub>(pubs_.size());
  pubs_.push_back(Publisher{.ssrc = ssrc, .clock_rate = clock_rate});
  by_ssrc_.emplace(ssrc, id);
  return id;
}

MediaOracle::Rx MediaOracle::add_receiver() {
  deliveries_.emplace_back();
  return static_cast<Rx>(deliveries_.size() - 1);
}

void MediaOracle::on_publish(std::span<const std::uint8_t> wire, SimTime at) {
  if (wire.size() < kRtpHeader) throw std::logic_error("oracle: short RTP packet published");
  auto it = by_ssrc_.find(rd32(wire.data() + 8));
  if (it == by_ssrc_.end()) throw std::logic_error("oracle: publish from unregistered ssrc");
  Publisher& p = pubs_[it->second];
  std::uint16_t seq = rd16(wire.data() + 2);
  if (!p.have_first) {
    p.have_first = true;
    p.first_seq = seq;
  }
  // Send index from the 16-bit sequence; a round publishes far fewer than
  // 65536 packets per source, so the mapping is exact.
  if (static_cast<std::uint16_t>(seq - p.first_seq) != p.sent.size() || p.sent.size() >= 65535) {
    throw std::logic_error("oracle: publisher sequence numbers not consecutive");
  }
  p.sent.push_back(Sent{checksum(wire), static_cast<std::uint32_t>(wire.size()), at});
}

void MediaOracle::expect(Rx rx, Pub pub, SimTime from, SimTime to) {
  if (to >= from) windows_.push_back(Window{rx, pub, from, to});
}

Failures MediaOracle::verify() {
  Failures out;
  pairs_.clear();
  seen_.clear();
  delays_ns_.clear();
  expected_ = 0;
  missing_ = 0;
  std::size_t total = 0;
  for (const auto& d : deliveries_) total += d.size();
  delays_ns_.reserve(total);
  // Payloads are immutable and fan-out shares buffers, so one checksum per
  // distinct (buffer, length) view covers every copy that shares it.
  std::unordered_map<const std::uint8_t*, std::pair<std::size_t, std::uint64_t>> sums;

  for (Rx rx = 0; rx < deliveries_.size(); ++rx) {
    for (const Delivery& d : deliveries_[rx]) {
      const Payload& w = d.wire;
      if (w.size() < kRtpHeader || (w[0] >> 6) != 2) {
        out.add(pair_name(rx, 0) + ": delivery is not an RTP packet");
        continue;
      }
      auto pit = by_ssrc_.find(rd32(w.data() + 8));
      if (pit == by_ssrc_.end()) {
        out.add("rx " + std::to_string(rx) + ": delivery from an unknown source");
        continue;
      }
      Pub pub = pit->second;
      const Publisher& p = pubs_[pub];
      auto idx = static_cast<std::uint16_t>(rd16(w.data() + 2) - p.first_seq);
      if (!p.have_first || idx >= p.sent.size()) {
        out.add(pair_name(rx, pub) + ": delivery of a packet never published");
        continue;
      }
      const Sent& s = p.sent[idx];
      auto [cit, fresh] = sums.try_emplace(w.data(), w.size(), 0);
      if (fresh || cit->second.first != w.size()) {
        cit->second = {w.size(), checksum(w.view())};
      }
      if (w.size() != s.size || cit->second.second != s.sum) {
        out.add(pair_name(rx, pub) + ": packet " + std::to_string(idx) + " corrupted");
        continue;
      }
      auto key = std::make_pair(rx, pub);
      std::vector<bool>& seen = seen_[key];
      if (seen.size() < p.sent.size()) seen.resize(p.sent.size(), false);
      PairStats& ps = pairs_[key];
      if (seen[idx]) {
        out.add(pair_name(rx, pub) + ": packet " + std::to_string(idx) + " duplicated");
        continue;
      }
      seen[idx] = true;
      if (static_cast<std::int64_t>(idx) < ps.last_index) {
        out.add(pair_name(rx, pub) + ": packet " + std::to_string(idx) + " out of order");
      }
      ps.last_index = std::max<std::int64_t>(ps.last_index, idx);
      SimDuration delay = d.at - s.at;
      if (min_delay_ && delay < min_delay_(rx, pub, w.size())) {
        out.add(pair_name(rx, pub) + ": delay " + std::to_string(delay.ns()) +
                " ns below the path bound");
      }
      if (delay > max_delay_) {
        out.add(pair_name(rx, pub) + ": delay above the membership guard");
      }
      delays_ns_.push_back(delay.ns());
      ++ps.received;
      ps.delay_sum_ms += delay.to_ms();
      // RFC 3550 A.8: transit in timestamp units, J += (|D| - J) / 16.
      double transit = d.at.to_seconds() * static_cast<double>(p.clock_rate) -
                       static_cast<double>(rd32(w.data() + 4));
      if (ps.have_transit) ps.jitter_ts += (std::abs(transit - ps.last_transit) - ps.jitter_ts) / 16.0;
      ps.have_transit = true;
      ps.last_transit = transit;
      ps.jitter_ts_sum += ps.jitter_ts;
    }
  }

  for (const Window& win : windows_) {
    const Publisher& p = pubs_[win.pub];
    auto sit = seen_.find({win.rx, win.pub});
    for (std::size_t i = 0; i < p.sent.size(); ++i) {
      if (p.sent[i].at < win.from || p.sent[i].at > win.to) continue;
      ++expected_;
      if (sit == seen_.end() || !sit->second[i]) {
        ++missing_;
        out.add(pair_name(win.rx, win.pub) + ": packet " + std::to_string(i) + " missing");
      }
    }
  }
  return out;
}

void MediaOracle::compare_probe(Rx rx, Pub pub, std::uint64_t probe_received,
                                double probe_mean_delay_ms, double probe_jitter_ms,
                                Failures& out) const {
  auto it = pairs_.find({rx, pub});
  std::uint64_t n = it == pairs_.end() ? 0 : it->second.received;
  if (n != probe_received) {
    out.add(pair_name(rx, pub) + ": probe counted " + std::to_string(probe_received) +
            " packets, oracle " + std::to_string(n));
    return;
  }
  if (n == 0) return;
  const PairStats& ps = it->second;
  double mean = ps.delay_sum_ms / static_cast<double>(n);
  double jitter = ps.jitter_ts * 1000.0 / pubs_[pub].clock_rate;
  auto close = [](double a, double b) { return std::abs(a - b) <= 1e-6 * (1.0 + std::abs(b)); };
  if (!close(mean, probe_mean_delay_ms) || !close(jitter, probe_jitter_ms)) {
    out.add(pair_name(rx, pub) + ": delay/jitter disagree with MediaProbe");
  }
}

double MediaOracle::mean_jitter_ms() const {
  if (pairs_.empty()) return 0;
  double sum = 0;
  for (const auto& [key, ps] : pairs_) {
    sum += ps.jitter_ts_sum / static_cast<double>(ps.received) * 1000.0 / pubs_[key.second].clock_rate;
  }
  return sum / static_cast<double>(pairs_.size());
}

std::uint64_t MediaOracle::delivered() const {
  std::uint64_t n = 0;
  for (const auto& d : deliveries_) n += d.size();
  return n;
}

void SignalOracle::answered(const std::string& path, bool ok) {
  Ledger& l = ledgers_[path];
  l.answered++;
  if (!ok) l.refused++;
}

void SignalOracle::finish(const std::map<std::string, gmmcs::xgsp::Session>& sessions,
                          std::uint32_t h323_bandwidth_in_use, Failures& out) const {
  for (const auto& [path, l] : ledgers_) {
    if (l.answered != l.sent) {
      out.add(path + ": " + std::to_string(l.sent - l.answered) + " requests never answered");
    }
    if (l.refused != 0) out.add(path + ": " + std::to_string(l.refused) + " requests refused");
  }
  for (const auto& [id, s] : sessions) {
    if (!s.members().empty()) {
      out.add("session " + id + ": roster not empty after the last cycle (" +
              s.members().front().user + ")");
    }
  }
  if (h323_bandwidth_in_use != 0) {
    out.add("gatekeeper: " + std::to_string(h323_bandwidth_in_use) + " bandwidth units still admitted");
  }
}

}  // namespace perfbench
