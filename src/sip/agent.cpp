#include "sip/agent.hpp"

#include "common/strings.hpp"

namespace gmmcs::sip {

std::string make_contact(sim::Endpoint ep) {
  return "sim:" + std::to_string(ep.node) + ":" + std::to_string(ep.port);
}

Result<sim::Endpoint> parse_contact(const std::string& contact) {
  std::string_view s = trim(contact);
  if (s.size() >= 2 && s.front() == '<' && s.back() == '>') s = s.substr(1, s.size() - 2);
  if (!starts_with(s, "sim:")) return fail<sim::Endpoint>("contact: expected sim: scheme");
  auto parts = split(std::string(s.substr(4)), ':');
  if (parts.size() != 2) return fail<sim::Endpoint>("contact: expected sim:node:port");
  auto node = parse_u32(parts[0]);
  auto port = parse_u16(parts[1]);
  if (!node || !port) return fail<sim::Endpoint>("contact: malformed node/port");
  return sim::Endpoint{static_cast<sim::NodeId>(*node), *port};
}

namespace {
/// port 0 = "any free SIP port": probe upward from the well-known one.
std::uint16_t resolve_port(sim::Host& host, std::uint16_t requested) {
  if (requested != 0) return requested;
  std::uint16_t p = SipAgent::kSipPort;
  while (host.is_bound(p)) ++p;
  return p;
}
}  // namespace

SipAgent::SipAgent(sim::Host& host, std::uint16_t port)
    : host_(&host), listener_(host, resolve_port(host, port)) {
  listener_.on_accept([this](transport::StreamConnectionPtr conn) {
    in_links_.push_back(conn);
    auto* raw = conn.get();
    conn->on_message([this, raw](const Payload& data) { handle_message(raw, data); });
    conn->on_close([this, raw] {
      std::erase_if(in_links_, [raw](const transport::StreamConnectionPtr& c) {
        return c.get() == raw;
      });
    });
  });
}

transport::StreamConnectionPtr SipAgent::link_to(sim::Endpoint target) {
  auto it = out_links_.find(target);
  if (it != out_links_.end() && !it->second->closed()) return it->second;
  auto conn = transport::StreamConnection::connect(*host_, target);
  auto* raw = conn.get();
  conn->on_message([this, raw](const Payload& data) { handle_message(raw, data); });
  conn->on_close([this, target] { out_links_.erase(target); });
  out_links_[target] = conn;
  return conn;
}

std::string SipAgent::transaction_key(const SipMessage& m) {
  return m.call_id() + "|" + std::to_string(m.cseq_number()) + "|" + m.cseq_method();
}

void SipAgent::send_request(sim::Endpoint target, SipMessage request,
                            ResponseHandler on_response) {
  pending_[transaction_key(request)] = std::move(on_response);
  send_request(target, std::move(request));
}

void SipAgent::send_request(sim::Endpoint target, SipMessage request) {
  ++requests_sent_;
  link_to(target)->send(request.serialize());
}

void SipAgent::on_request(RequestHandler handler) {
  request_handler_ = std::move(handler);
}

void SipAgent::handle_message(transport::StreamConnection* from, const Payload& data) {
  auto parsed = SipMessage::parse(gmmcs::to_string(std::span<const std::uint8_t>(data)));
  if (!parsed.ok()) return;
  SipMessage m = std::move(parsed).value();
  if (m.is_request) {
    ++requests_received_;
    if (!request_handler_) return;
    // Bind the responder to the link the request came from; the weak
    // capture pattern is unnecessary here because links outlive the
    // synchronous responder use in all our elements.
    Responder responder = [from](const SipMessage& resp) { from->send(resp.serialize()); };
    request_handler_(m, responder);
    return;
  }
  auto it = pending_.find(transaction_key(m));
  if (it == pending_.end()) return;
  ResponseHandler handler = it->second;
  if (m.status >= 200) pending_.erase(it);
  handler(m);
}

std::string SipAgent::new_call_id() {
  // Host id plus the agent's bound port: several agents may share a host,
  // and each numbers its calls from 1.
  return "cid-" + std::to_string(host_->id()) + "-" + std::to_string(endpoint().port) + "-" +
         std::to_string(++call_id_counter_);
}

}  // namespace gmmcs::sip
