// RTP packet model and wire format (RFC 3550 §5.1).
//
// This is a faithful subset: fixed 12-byte header, CSRC list, marker bit,
// payload type, sequence number, timestamp, SSRC. Header extensions and
// padding are not generated by anything in this system and parse as errors.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/payload.hpp"
#include "common/result.hpp"

namespace gmmcs::rtp {

constexpr std::uint8_t kRtpVersion = 2;
constexpr std::size_t kRtpHeaderSize = 12;

struct RtpPacket {
  bool marker = false;
  std::uint8_t payload_type = 0;
  std::uint16_t sequence = 0;
  std::uint32_t timestamp = 0;
  std::uint32_t ssrc = 0;
  std::vector<std::uint32_t> csrcs;
  /// Ref-counted view: a parsed packet's payload is a zero-copy slice of
  /// the buffer it arrived in.
  Payload payload;

  [[nodiscard]] Bytes serialize() const;
  static Result<RtpPacket> parse(const Payload& data);

  /// Total bytes on the wire (header + CSRCs + payload).
  [[nodiscard]] std::size_t wire_size() const {
    return kRtpHeaderSize + 4 * csrcs.size() + payload.size();
  }
};

}  // namespace gmmcs::rtp
