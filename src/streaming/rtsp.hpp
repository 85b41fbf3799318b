// RTSP message codec (RFC 2326 subset).
//
// "Real-players as well as windows media players can use RTSP to connect
// the Helix Server and choose the multimedia streams that they are
// interested in." Same text-protocol shape as SIP: request/status line,
// headers, optional body (SDP-ish stream description).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace gmmcs::streaming {

struct RtspMessage {
  bool is_request = true;
  std::string method;  // OPTIONS, DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN
  std::string uri;     // rtsp://<server>/<stream>
  int status = 0;
  std::string reason;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  [[nodiscard]] std::string header(const std::string& name) const;
  RtspMessage& set_header(const std::string& name, const std::string& value);
  [[nodiscard]] int cseq() const;
  [[nodiscard]] std::string session_id() const { return header("Session"); }

  [[nodiscard]] std::string serialize() const;
  static Result<RtspMessage> parse(const std::string& text);

  static RtspMessage request(const std::string& method, const std::string& uri, int cseq);
  static RtspMessage response(const RtspMessage& req, int status, const std::string& reason);
};

/// Extracts the stream name from "rtsp://host/name".
std::string stream_name_from_uri(const std::string& uri);

}  // namespace gmmcs::streaming
