// XGSP: the XML-based General Session Protocol (paper §2.2).
//
// One signaling vocabulary that every gateway translates into: H.225/H.245
// from H.323 endpoints, INVITE/BYE from SIP, Admire's SOAP calls. The wire
// form is an <xgsp type="..."> element; a tagged Message struct carries
// the union of fields (the subset used depends on the type, as in most
// hand-written 2003 XML protocols).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "xgsp/session.hpp"
#include "xml/xml.hpp"

namespace gmmcs::xgsp {

enum class MsgType {
  kCreateSession,  // -> kSessionInfo
  kJoinSession,    // -> kJoinAck
  kLeaveSession,   // -> kAck
  kEndSession,     // -> kAck
  kListSessions,   // -> kSessionList
  kFloorRequest,   // -> kFloorStatus
  kFloorRelease,   // -> kFloorStatus
  kSessionInfo,
  kJoinAck,
  kAck,
  kSessionList,
  kFloorStatus,
  kError,
};

const char* to_string(MsgType t);

struct Message {
  MsgType type = MsgType::kAck;
  std::uint32_t seq = 0;
  /// Broker topic the reply should be published to.
  std::string reply_to;

  // Request fields.
  std::string session_id;
  std::string user;
  std::string title;
  SessionMode mode = SessionMode::kAdHoc;
  EndpointKind endpoint_kind = EndpointKind::kXgsp;
  /// For kCreateSession: requested streams (topic left empty).
  std::vector<MediaStream> media;

  // Reply fields.
  bool ok = true;
  std::string reason;  // kError
  std::vector<Session> sessions;  // kSessionInfo/kJoinAck: one; kSessionList: many
  std::string floor_holder;
  std::vector<std::string> floor_queue;

  [[nodiscard]] xml::Element to_xml() const;
  [[nodiscard]] std::string serialize() const { return to_xml().serialize(); }
  static Result<Message> from_xml(const xml::Element& e);
  static Result<Message> parse(const std::string& text);

  // --- Convenience constructors for the common requests ---
  static Message create_session(std::string title, std::string creator, SessionMode mode,
                                std::vector<std::pair<std::string, std::string>> media);
  static Message join(std::string session_id, std::string user, EndpointKind kind);
  static Message leave(std::string session_id, std::string user);
  static Message end_session(std::string session_id);
  static Message error(std::string reason);
};

}  // namespace gmmcs::xgsp
