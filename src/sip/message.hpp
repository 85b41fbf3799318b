// SIP message model and RFC 3261-subset text codec.
//
// SIP is a text protocol, cheap to implement faithfully, so this is a real
// parser/serializer: request/status lines, ordered headers with
// case-insensitive names, bodies, and the helpers (Call-ID, CSeq, tags,
// branches) the transaction layer needs. Transport in this system is the
// reliable stream, i.e. SIP-over-TCP semantics: no retransmission timers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace gmmcs::sip {

/// "sip:user@host" (we do not model ports inside SIP URIs; hosts map to
/// simulated nodes via the registrar).
struct SipUri {
  std::string user;
  std::string host;

  [[nodiscard]] std::string to_string() const { return "sip:" + user + "@" + host; }
  static Result<SipUri> parse(const std::string& text);
  auto operator<=>(const SipUri&) const = default;
};

struct SipMessage {
  // Request fields.
  bool is_request = true;
  std::string method;       // INVITE, ACK, BYE, REGISTER, MESSAGE, SUBSCRIBE, NOTIFY
  std::string request_uri;  // "sip:conf-1@gmmcs"
  // Response fields.
  int status = 0;
  std::string reason;

  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  // --- Header access (case-insensitive names) ---
  [[nodiscard]] std::string header(const std::string& name) const;
  [[nodiscard]] bool has_header(const std::string& name) const;
  SipMessage& set_header(const std::string& name, const std::string& value);
  SipMessage& add_header(const std::string& name, const std::string& value);

  // --- Common helpers ---
  [[nodiscard]] std::string call_id() const { return header("Call-ID"); }
  [[nodiscard]] std::string from() const { return header("From"); }
  [[nodiscard]] std::string to() const { return header("To"); }
  [[nodiscard]] std::uint32_t cseq_number() const;
  [[nodiscard]] std::string cseq_method() const;
  /// The address part of From/To without tag parameters.
  [[nodiscard]] std::string from_uri() const;
  [[nodiscard]] std::string to_uri() const;

  [[nodiscard]] std::string serialize() const;
  static Result<SipMessage> parse(const std::string& text);

  /// Builds a request with the mandatory headers.
  static SipMessage request(const std::string& method, const std::string& uri,
                            const std::string& from, const std::string& to,
                            const std::string& call_id, std::uint32_t cseq);
  /// Builds a response echoing the dialog-identifying headers of `req`.
  static SipMessage response(const SipMessage& req, int status, const std::string& reason);
};

/// Strips "<...>" and ";param" decoration from a From/To value.
std::string strip_address(const std::string& header_value);

}  // namespace gmmcs::sip
