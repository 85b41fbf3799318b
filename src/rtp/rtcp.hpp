// RTCP sender/receiver reports (RFC 3550 §6.4), subset.
//
// Global-MMCS uses RTCP for the receiver quality feedback that the
// capacity experiments (claims C1/C2 in DESIGN.md) evaluate: fraction
// lost, cumulative lost, highest sequence and interarrival jitter.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace gmmcs::rtp {

constexpr std::uint8_t kRtcpSenderReport = 200;
constexpr std::uint8_t kRtcpReceiverReport = 201;
constexpr std::uint8_t kRtcpBye = 203;

/// One reception report block (RFC 3550 §6.4.1).
struct ReportBlock {
  std::uint32_t ssrc = 0;            // source this block reports on
  std::uint8_t fraction_lost = 0;    // fixed point, /256
  std::uint32_t cumulative_lost = 0; // 24 bits on the wire
  std::uint32_t highest_seq = 0;     // extended highest sequence received
  std::uint32_t jitter = 0;          // in timestamp units
  std::uint32_t lsr = 0;             // last SR timestamp
  std::uint32_t dlsr = 0;            // delay since last SR

  [[nodiscard]] double fraction_lost_ratio() const {
    return static_cast<double>(fraction_lost) / 256.0;
  }
};

struct SenderReport {
  std::uint32_t ssrc = 0;
  std::uint64_t ntp_timestamp = 0;  // simulated-clock ns at send
  std::uint32_t rtp_timestamp = 0;
  std::uint32_t packet_count = 0;
  std::uint32_t octet_count = 0;
  std::vector<ReportBlock> blocks;
};

struct ReceiverReport {
  std::uint32_t ssrc = 0;  // reporter
  std::vector<ReportBlock> blocks;
};

struct Bye {
  std::uint32_t ssrc = 0;
};

/// A parsed RTCP packet (exactly one of the alternatives is meaningful,
/// selected by `type`).
struct RtcpPacket {
  std::uint8_t type = 0;
  SenderReport sr;
  ReceiverReport rr;
  Bye bye;
};

Bytes serialize(const SenderReport& sr);
Bytes serialize(const ReceiverReport& rr);
Bytes serialize(const Bye& bye);
Result<RtcpPacket> parse_rtcp(std::span<const std::uint8_t> data);

/// Distinguishes RTCP from RTP when both arrive on one socket: RTCP packet
/// types 200..204 collide with the RTP marker+payload-type byte range
/// 72..76, which real deployments avoid for media. We follow that rule.
bool looks_like_rtcp(std::span<const std::uint8_t> data);

}  // namespace gmmcs::rtp
