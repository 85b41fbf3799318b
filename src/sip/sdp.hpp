// SDP subset (RFC 2327 vintage) for SIP offer/answer.
//
// Carries what the gateways need: the session owner, the connection
// address (our address family is "SIM" with a node id), and per-media
// lines with transport port, payload types and an rtpmap codec name.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "sim/network.hpp"

namespace gmmcs::sip {

struct SdpMedia {
  std::string kind;  // "audio" | "video"
  std::uint16_t port = 0;
  std::uint8_t payload_type = 0;
  std::string codec;  // rtpmap name, e.g. "PCMU/8000"
};

struct Sdp {
  std::string origin_user = "-";
  sim::NodeId address = 0;  // c= line, address family "SIM"
  std::string session_name = "gmmcs";
  std::vector<SdpMedia> media;

  [[nodiscard]] std::string serialize() const;
  static Result<Sdp> parse(const std::string& text);

  /// Endpoint of the first media line of the given kind (node from c=).
  [[nodiscard]] std::optional<sim::Endpoint> media_endpoint(const std::string& kind) const;
};

}  // namespace gmmcs::sip
