#include "xgsp/messages.hpp"

#include "common/strings.hpp"

namespace gmmcs::xgsp {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kCreateSession: return "create-session";
    case MsgType::kJoinSession: return "join-session";
    case MsgType::kLeaveSession: return "leave-session";
    case MsgType::kEndSession: return "end-session";
    case MsgType::kListSessions: return "list-sessions";
    case MsgType::kFloorRequest: return "floor-request";
    case MsgType::kFloorRelease: return "floor-release";
    case MsgType::kSessionInfo: return "session-info";
    case MsgType::kJoinAck: return "join-ack";
    case MsgType::kAck: return "ack";
    case MsgType::kSessionList: return "session-list";
    case MsgType::kFloorStatus: return "floor-status";
    case MsgType::kError: return "error";
  }
  return "?";
}

namespace {
Result<MsgType> type_from(const std::string& s) {
  for (MsgType t : {MsgType::kCreateSession, MsgType::kJoinSession, MsgType::kLeaveSession,
                    MsgType::kEndSession, MsgType::kListSessions, MsgType::kFloorRequest,
                    MsgType::kFloorRelease, MsgType::kSessionInfo, MsgType::kJoinAck,
                    MsgType::kAck, MsgType::kSessionList, MsgType::kFloorStatus,
                    MsgType::kError}) {
    if (s == to_string(t)) return t;
  }
  return fail<MsgType>("xgsp: unknown message type '" + s + "'");
}
}  // namespace

xml::Element Message::to_xml() const {
  xml::Element e("xgsp");
  e.set_attr("type", to_string(type));
  e.set_attr("seq", std::to_string(seq));
  if (!reply_to.empty()) e.set_attr("reply-to", reply_to);
  if (!session_id.empty()) e.set_attr("session", session_id);
  if (!user.empty()) e.set_attr("user", user);
  if (type == MsgType::kCreateSession) {
    e.add_text_child("title", title);
    e.set_attr("mode", mode == SessionMode::kScheduled ? "scheduled" : "adhoc");
  }
  if (type == MsgType::kJoinSession) e.set_attr("via", xgsp::to_string(endpoint_kind));
  for (const auto& m : media) e.add_child(m.to_xml());
  if (!ok || type == MsgType::kError) e.set_attr("ok", "false");
  // `reason` doubles as the change kind on kSessionInfo notifications.
  if (!reason.empty()) e.add_text_child("reason", reason);
  for (const auto& s : sessions) e.add_child(s.to_xml());
  if (type == MsgType::kFloorStatus) {
    xml::Element& f = e.add_child("floor");
    f.set_attr("holder", floor_holder);
    for (const auto& u : floor_queue) f.add_text_child("queued", u);
  }
  return e;
}

Result<Message> Message::from_xml(const xml::Element& e) {
  if (e.name() != "xgsp") return fail<Message>("xgsp: root element must be <xgsp>");
  auto type = type_from(e.attr("type"));
  if (!type.ok()) return fail<Message>(type.error().message);
  Message m;
  m.type = type.value();
  if (e.has_attr("seq")) {
    auto seq = parse_u32(e.attr("seq"));
    if (!seq) return fail<Message>("xgsp: malformed seq '" + e.attr("seq") + "'");
    m.seq = *seq;
  }
  m.reply_to = e.attr("reply-to");
  m.session_id = e.attr("session");
  m.user = e.attr("user");
  m.title = e.child_text("title");
  m.mode = e.attr("mode") == "scheduled" ? SessionMode::kScheduled : SessionMode::kAdHoc;
  if (e.has_attr("via")) {
    auto kind = endpoint_kind_from(e.attr("via"));
    if (!kind) return fail<Message>("xgsp: unknown endpoint kind '" + e.attr("via") + "'");
    m.endpoint_kind = *kind;
  }
  m.ok = e.attr("ok") != "false";
  m.reason = e.child_text("reason");
  for (const xml::Element* me : e.children_named("media")) {
    m.media.push_back(MediaStream::from_xml(*me));
  }
  for (const xml::Element* se : e.children_named("session")) {
    m.sessions.push_back(Session::from_xml(*se));
  }
  if (const xml::Element* f = e.child("floor")) {
    m.floor_holder = f->attr("holder");
    for (const xml::Element* q : f->children_named("queued")) {
      m.floor_queue.push_back(q->text());
    }
  }
  return m;
}

Result<Message> Message::parse(const std::string& text) {
  auto doc = xml::parse(text);
  if (!doc.ok()) return fail<Message>(doc.error().message);
  return from_xml(doc.value());
}

Message Message::create_session(std::string title, std::string creator, SessionMode mode,
                                std::vector<std::pair<std::string, std::string>> media) {
  Message m;
  m.type = MsgType::kCreateSession;
  m.title = std::move(title);
  m.user = std::move(creator);
  m.mode = mode;
  for (auto& [kind, codec] : media) {
    MediaStream s;
    s.kind = kind;
    s.codec = codec;
    m.media.push_back(std::move(s));
  }
  return m;
}

Message Message::join(std::string session_id, std::string user, EndpointKind kind) {
  Message m;
  m.type = MsgType::kJoinSession;
  m.session_id = std::move(session_id);
  m.user = std::move(user);
  m.endpoint_kind = kind;
  return m;
}

Message Message::leave(std::string session_id, std::string user) {
  Message m;
  m.type = MsgType::kLeaveSession;
  m.session_id = std::move(session_id);
  m.user = std::move(user);
  return m;
}

Message Message::end_session(std::string session_id) {
  Message m;
  m.type = MsgType::kEndSession;
  m.session_id = std::move(session_id);
  return m;
}

Message Message::error(std::string reason) {
  Message m;
  m.type = MsgType::kError;
  m.ok = false;
  m.reason = std::move(reason);
  return m;
}

}  // namespace gmmcs::xgsp
