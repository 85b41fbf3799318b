#include "xgsp/client.hpp"

#include "broker/topic.hpp"
#include "common/strings.hpp"

namespace gmmcs::xgsp {

XgspClient::XgspClient(sim::Host& host, sim::Endpoint broker_stream, std::string user)
    : user_(std::move(user)),
      reply_topic_("/xgsp/client/" + user_),
      client_(host, broker_stream,
              broker::BrokerClient::Config{.name = "xgsp-" + user_}) {
  client_.subscribe(reply_topic_);
  client_.on_event([this](const broker::Event& ev) {
    // Replies arrive on the private topic; notifications on session
    // control topics; everything else is media.
    if (ev.topic == reply_topic_) {
      auto msg = Message::parse(gmmcs::to_string(std::span<const std::uint8_t>(ev.payload)));
      if (!msg.ok()) return;
      auto it = pending_.find(msg.value().seq);
      if (it == pending_.end()) return;
      ReplyHandler handler = std::move(it->second);
      pending_.erase(it);
      handler(msg.value());
      return;
    }
    if (ends_with(ev.topic, "/control")) {
      if (notification_handler_) {
        auto msg = Message::parse(gmmcs::to_string(std::span<const std::uint8_t>(ev.payload)));
        if (msg.ok()) notification_handler_(msg.value());
      }
      return;
    }
    if (media_handler_) media_handler_(ev);
  });
}

void XgspClient::request(Message m, ReplyHandler on_reply) {
  m.seq = next_seq_++;
  m.reply_to = reply_topic_;
  if (m.user.empty()) m.user = user_;
  pending_[m.seq] = std::move(on_reply);
  client_.publish(SessionServer::kControlTopic, to_bytes(m.serialize()),
                  broker::QoS::kReliable);
}

void XgspClient::create_session(const std::string& title, SessionMode mode,
                                std::vector<std::pair<std::string, std::string>> media,
                                ReplyHandler on_reply) {
  request(Message::create_session(title, user_, mode, std::move(media)), std::move(on_reply));
}

void XgspClient::join(const std::string& session_id, ReplyHandler on_reply) {
  // Subscribe to the session control topic before the ack so no
  // notification is missed.
  if (!watched_sessions_[session_id]) {
    watched_sessions_[session_id] = true;
    client_.subscribe("/xgsp/session/" + session_id + "/control");
  }
  request(Message::join(session_id, user_, EndpointKind::kXgsp), std::move(on_reply));
}

void XgspClient::leave(const std::string& session_id, ReplyHandler on_reply) {
  // Stop watching the session: its notifications are for members only,
  // and a later join subscribes again.
  auto watched = watched_sessions_.find(session_id);
  if (watched != watched_sessions_.end() && watched->second) {
    watched->second = false;
    client_.unsubscribe("/xgsp/session/" + session_id + "/control");
  }
  request(Message::leave(session_id, user_), std::move(on_reply));
}

void XgspClient::list_sessions(ReplyHandler on_reply) {
  Message m;
  m.type = MsgType::kListSessions;
  request(std::move(m), std::move(on_reply));
}

void XgspClient::request_floor(const std::string& session_id, ReplyHandler on_reply) {
  Message m;
  m.type = MsgType::kFloorRequest;
  m.session_id = session_id;
  request(std::move(m), std::move(on_reply));
}

void XgspClient::release_floor(const std::string& session_id, ReplyHandler on_reply) {
  Message m;
  m.type = MsgType::kFloorRelease;
  m.session_id = session_id;
  request(std::move(m), std::move(on_reply));
}

void XgspClient::on_notification(std::function<void(const Message&)> handler) {
  notification_handler_ = std::move(handler);
}

void XgspClient::publish_media(const std::string& topic, Payload payload) {
  client_.publish(topic, std::move(payload));
}

void XgspClient::subscribe_media(const std::string& topic) {
  client_.subscribe(topic);
}

void XgspClient::on_media(std::function<void(const broker::Event&)> handler) {
  media_handler_ = std::move(handler);
}

}  // namespace gmmcs::xgsp
