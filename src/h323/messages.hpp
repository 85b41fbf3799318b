// H.323 message set: H.225 RAS, H.225.0/Q.931 call signaling, H.245
// conference control — the subset Global-MMCS's gateway translates.
//
// Real H.323 encodes these with ASN.1 PER; what the paper integrates is
// the *signaling state machines* (gatekeeper discovery/registration/
// admission, Setup/Connect call establishment, capability exchange and
// logical channels), so we keep the fields and flows faithful and use a
// compact binary encoding in place of PER (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "sim/network.hpp"

namespace gmmcs::h323 {

// --- H.225 RAS (UDP port 1719) ---

enum class RasType : std::uint8_t {
  kGatekeeperRequest = 1,   // GRQ
  kGatekeeperConfirm = 2,   // GCF
  kGatekeeperReject = 3,    // GRJ
  kRegistrationRequest = 4, // RRQ
  kRegistrationConfirm = 5, // RCF
  kRegistrationReject = 6,  // RRJ
  kAdmissionRequest = 7,    // ARQ
  kAdmissionConfirm = 8,    // ACF
  kAdmissionReject = 9,     // ARJ
  kDisengageRequest = 10,   // DRQ
  kDisengageConfirm = 11,   // DCF
  kBandwidthRequest = 12,   // BRQ: change admitted bandwidth mid-call
  kBandwidthConfirm = 13,   // BCF
  kBandwidthReject = 14,    // BRJ
};

struct RasMessage {
  RasType type = RasType::kGatekeeperRequest;
  std::uint32_t seq = 0;
  std::string endpoint_alias;   // H.323-ID of the endpoint
  std::string gatekeeper_id;
  /// Endpoint's call-signaling address (RRQ) or the address the caller
  /// must signal to (ACF).
  sim::Endpoint call_signal_address{};
  /// Requested/granted bandwidth (ARQ/ACF), in units of 100 bit/s as in
  /// H.225.
  std::uint32_t bandwidth = 0;
  /// Destination alias for admission (conference alias "conf-<id>").
  std::string destination_alias;
  std::string reject_reason;

  [[nodiscard]] Bytes encode() const;
  static Result<RasMessage> decode(std::span<const std::uint8_t> data);
};

// --- H.225.0 call signaling (Q.931 flavored, TCP port 1720) ---

enum class Q931Type : std::uint8_t {
  kSetup = 0x05,
  kCallProceeding = 0x02,
  kAlerting = 0x01,
  kConnect = 0x07,
  kReleaseComplete = 0x5A,
};

struct Q931Message {
  Q931Type type = Q931Type::kSetup;
  std::uint16_t call_reference = 0;
  std::string calling_party;
  std::string called_party;  // conference alias for gateway calls
  /// H.245 control-channel address (Connect carries the callee's).
  sim::Endpoint h245_address{};
  std::string release_reason;

  [[nodiscard]] Bytes encode() const;
  static Result<Q931Message> decode(std::span<const std::uint8_t> data);
};

// --- H.245 conference control (own TCP connection) ---

enum class H245Type : std::uint8_t {
  kTerminalCapabilitySet = 1,
  kTerminalCapabilitySetAck = 2,
  kMasterSlaveDetermination = 3,
  kMasterSlaveAck = 4,
  kOpenLogicalChannel = 5,
  kOpenLogicalChannelAck = 6,
  kOpenLogicalChannelReject = 7,
  kCloseLogicalChannel = 8,
  kCloseLogicalChannelAck = 9,
  kEndSession = 10,
};

struct H245Message {
  H245Type type = H245Type::kTerminalCapabilitySet;
  std::uint32_t seq = 0;
  /// TCS: RTP payload types this terminal can receive.
  std::vector<std::uint8_t> capabilities;
  /// OLC and friends.
  std::uint16_t channel = 0;
  std::string media_kind;        // "audio" | "video"
  std::uint8_t payload_type = 0;
  /// OLC: the opener's RTP receive address (media control semantics);
  /// OLC-Ack: where the opener must send its RTP.
  sim::Endpoint media_address{};
  std::string reject_reason;

  [[nodiscard]] Bytes encode() const;
  static Result<H245Message> decode(std::span<const std::uint8_t> data);
};

}  // namespace gmmcs::h323
