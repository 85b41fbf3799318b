// Tests for the SIP stack: message/SDP codecs, registrar/proxy routing,
// UA call flows, the SIP<->XGSP gateway media bridge, IM/chat, presence.
#include <gtest/gtest.h>

#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "media/probe.hpp"
#include "rtp/session.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sip/endpoint.hpp"
#include "sip/gateway.hpp"
#include "sip/im.hpp"
#include "sip/message.hpp"
#include "sip/proxy.hpp"
#include "sip/sdp.hpp"
#include "xgsp/session_server.hpp"

namespace gmmcs::sip {
namespace {

TEST(SipUriParse, Basics) {
  auto u = SipUri::parse("sip:alice@iu.edu");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().user, "alice");
  EXPECT_EQ(u.value().host, "iu.edu");
  EXPECT_EQ(u.value().to_string(), "sip:alice@iu.edu");
  EXPECT_FALSE(SipUri::parse("alice@iu.edu").ok());
  EXPECT_FALSE(SipUri::parse("sip:aliceiu.edu").ok());
  EXPECT_FALSE(SipUri::parse("sip:@host").ok());
}

TEST(SipMessageCodec, RequestRoundTrip) {
  SipMessage req = SipMessage::request("INVITE", "sip:bob@syr.edu", "sip:alice@iu.edu",
                                       "sip:bob@syr.edu", "call-77", 3);
  req.set_header("Contact", "sim:4:5060");
  req.body = "v=0\r\n";
  auto r = SipMessage::parse(req.serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().is_request);
  EXPECT_EQ(r.value().method, "INVITE");
  EXPECT_EQ(r.value().request_uri, "sip:bob@syr.edu");
  EXPECT_EQ(r.value().call_id(), "call-77");
  EXPECT_EQ(r.value().cseq_number(), 3u);
  EXPECT_EQ(r.value().cseq_method(), "INVITE");
  EXPECT_EQ(r.value().from_uri(), "sip:alice@iu.edu");
  EXPECT_EQ(r.value().body, "v=0\r\n");
}

TEST(SipMessageCodec, ResponseRoundTripAndEcho) {
  SipMessage req = SipMessage::request("BYE", "sip:x@y", "sip:a@b", "sip:x@y", "c1", 9);
  SipMessage resp = SipMessage::response(req, 200, "OK");
  auto r = SipMessage::parse(resp.serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().is_request);
  EXPECT_EQ(r.value().status, 200);
  EXPECT_EQ(r.value().call_id(), "c1");
  EXPECT_EQ(r.value().cseq_method(), "BYE");
}

TEST(SipMessageCodec, HeaderNamesCaseInsensitive) {
  SipMessage m;
  m.set_header("Call-ID", "x");
  EXPECT_EQ(m.header("call-id"), "x");
  m.set_header("CALL-ID", "y");
  EXPECT_EQ(m.header("Call-ID"), "y");
  EXPECT_EQ(m.headers.size(), 1u);
}

TEST(SipMessageCodec, RejectsMalformed) {
  EXPECT_FALSE(SipMessage::parse("garbage").ok());
  EXPECT_FALSE(SipMessage::parse("INVITE sip:x@y\r\n\r\n").ok());
  EXPECT_FALSE(SipMessage::parse("INVITE sip:x@y SIP/2.0\r\nBadHeader\r\n\r\n").ok());
}

TEST(SipMessageCodec, StripAddress) {
  EXPECT_EQ(strip_address("<sip:a@b>;tag=zz"), "sip:a@b");
  EXPECT_EQ(strip_address("sip:a@b;tag=zz"), "sip:a@b");
  EXPECT_EQ(strip_address("  sip:a@b  "), "sip:a@b");
}

TEST(SdpCodec, RoundTrip) {
  Sdp sdp;
  sdp.origin_user = "alice";
  sdp.address = 7;
  sdp.media.push_back({"audio", 4000, 0, "PCMU/8000"});
  sdp.media.push_back({"video", 4002, 31, "H261/90000"});
  auto r = Sdp::parse(sdp.serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().address, 7u);
  ASSERT_EQ(r.value().media.size(), 2u);
  EXPECT_EQ(r.value().media[1].codec, "H261/90000");
  auto ep = r.value().media_endpoint("video");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->port, 4002);
}

TEST(SdpCodec, RejectsMalformed) {
  EXPECT_FALSE(Sdp::parse("no sdp here").ok());
  EXPECT_FALSE(Sdp::parse("v=0\r\nc=IN SIM\r\n").ok());
  EXPECT_FALSE(Sdp::parse("v=0\r\nm=audio\r\n").ok());
}

TEST(Contact, RoundTrip) {
  auto ep = parse_contact(make_contact({9, 5060}));
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep.value().node, 9u);
  EXPECT_EQ(ep.value().port, 5060);
  EXPECT_TRUE(parse_contact("<sim:1:2>").ok());
  EXPECT_FALSE(parse_contact("sip:1:2").ok());
}

class SipTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  sim::Network net{loop, 31};
};

TEST_F(SipTest, RegisterAndLookup) {
  SipProxy proxy(net.add_host("proxy"));
  SipEndpoint alice(net.add_host("alice"), "sip:alice@iu.edu", proxy.endpoint());
  bool ok = false;
  alice.register_with_proxy([&](bool r) { ok = r; });
  loop.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(proxy.registrations(), 1u);
  auto binding = proxy.lookup("sip:alice@iu.edu");
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->node, alice.agent().endpoint().node);
  // Unregister clears the binding.
  alice.unregister([&](bool r) { ok = r; });
  loop.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(proxy.registrations(), 0u);
}

TEST_F(SipTest, EndToEndCallThroughProxy) {
  SipProxy proxy(net.add_host("proxy"));
  SipEndpoint alice(net.add_host("alice"), "sip:alice@iu.edu", proxy.endpoint());
  SipEndpoint bob(net.add_host("bob"), "sip:bob@syr.edu", proxy.endpoint());
  alice.register_with_proxy([](bool) {});
  bob.register_with_proxy([](bool) {});
  loop.run();
  bob.on_invite([&](const std::string& from, const Sdp& offer) -> std::optional<Sdp> {
    EXPECT_EQ(from, "sip:alice@iu.edu");
    EXPECT_EQ(offer.media.size(), 1u);
    Sdp answer;
    answer.address = 99;
    answer.media.push_back({"audio", 6000, 0, "PCMU/8000"});
    return answer;
  });
  Sdp offer;
  offer.address = 5;
  offer.media.push_back({"audio", 5004, 0, "PCMU/8000"});
  bool established = false;
  alice.invite("sip:bob@syr.edu", offer, [&](bool ok, const SipEndpoint::Call& call) {
    established = ok;
    EXPECT_EQ(call.remote_sdp.address, 99u);
  });
  loop.run();
  ASSERT_TRUE(established);
  ASSERT_TRUE(alice.active_call().has_value());
  ASSERT_TRUE(bob.active_call().has_value());
  // Teardown.
  bool bye_ok = false;
  alice.bye([&](bool ok) { bye_ok = ok; });
  loop.run();
  EXPECT_TRUE(bye_ok);
  EXPECT_FALSE(alice.active_call().has_value());
  EXPECT_FALSE(bob.active_call().has_value());
}

TEST_F(SipTest, CallToUnregisteredUserFails) {
  SipProxy proxy(net.add_host("proxy"));
  SipEndpoint alice(net.add_host("alice"), "sip:alice@iu.edu", proxy.endpoint());
  alice.register_with_proxy([](bool) {});
  loop.run();
  int status_ok = -1;
  alice.invite("sip:ghost@nowhere", Sdp{}, [&](bool ok, const SipEndpoint::Call&) {
    status_ok = ok ? 1 : 0;
  });
  loop.run();
  EXPECT_EQ(status_ok, 0);
  EXPECT_EQ(proxy.rejected(), 1u);
}

TEST_F(SipTest, CalleeCanReject) {
  SipProxy proxy(net.add_host("proxy"));
  SipEndpoint alice(net.add_host("alice"), "sip:alice@iu.edu", proxy.endpoint());
  SipEndpoint bob(net.add_host("bob"), "sip:bob@syr.edu", proxy.endpoint());
  alice.register_with_proxy([](bool) {});
  bob.register_with_proxy([](bool) {});
  loop.run();
  bob.on_invite([](const std::string&, const Sdp&) { return std::nullopt; });
  bool ok = true;
  alice.invite("sip:bob@syr.edu", Sdp{}, [&](bool r, const SipEndpoint::Call&) { ok = r; });
  loop.run();
  EXPECT_FALSE(ok);
}

TEST_F(SipTest, InstantMessageDirect) {
  SipProxy proxy(net.add_host("proxy"));
  SipEndpoint alice(net.add_host("alice"), "sip:alice@iu.edu", proxy.endpoint());
  SipEndpoint bob(net.add_host("bob"), "sip:bob@syr.edu", proxy.endpoint());
  alice.register_with_proxy([](bool) {});
  bob.register_with_proxy([](bool) {});
  loop.run();
  std::string got_from, got_text;
  bob.on_message([&](const std::string& from, const std::string& text) {
    got_from = from;
    got_text = text;
  });
  bool delivered = false;
  alice.send_message("sip:bob@syr.edu", "hi bob", [&](bool ok) { delivered = ok; });
  loop.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(got_from, "sip:alice@iu.edu");
  EXPECT_EQ(got_text, "hi bob");
}

TEST_F(SipTest, ChatRoomFanout) {
  sim::Host& server_host = net.add_host("server");
  SipProxy proxy(server_host);
  ChatServer chat(server_host);
  proxy.add_domain_route(ChatServer::kDomain, chat.endpoint());
  SipEndpoint alice(net.add_host("alice"), "sip:alice@iu.edu", proxy.endpoint());
  SipEndpoint bob(net.add_host("bob"), "sip:bob@syr.edu", proxy.endpoint());
  SipEndpoint carol(net.add_host("carol"), "sip:carol@anl.gov", proxy.endpoint());
  std::string room = ChatServer::room_uri("grid-forum");
  for (auto* ep : {&alice, &bob, &carol}) {
    ep->register_with_proxy([](bool) {});
    ep->send_message(room, "/join", [](bool) {});
  }
  loop.run();
  EXPECT_EQ(chat.member_count("grid-forum"), 3u);
  std::vector<std::string> bob_got, carol_got, alice_got;
  alice.on_message([&](const std::string&, const std::string& t) { alice_got.push_back(t); });
  bob.on_message([&](const std::string&, const std::string& t) { bob_got.push_back(t); });
  carol.on_message([&](const std::string&, const std::string& t) { carol_got.push_back(t); });
  alice.send_message(room, "hello everyone", [](bool) {});
  loop.run();
  ASSERT_EQ(bob_got.size(), 1u);
  EXPECT_EQ(bob_got[0], "sip:alice@iu.edu: hello everyone");
  EXPECT_EQ(carol_got.size(), 1u);
  EXPECT_TRUE(alice_got.empty());  // no echo to the sender
  // Leave stops delivery.
  bob.send_message(room, "/leave", [](bool) {});
  loop.run();
  carol.send_message(room, "bob gone?", [](bool) {});
  loop.run();
  EXPECT_EQ(bob_got.size(), 1u);
  EXPECT_EQ(alice_got.size(), 1u);
}

TEST_F(SipTest, ChatRequiresMembership) {
  sim::Host& server_host = net.add_host("server");
  SipProxy proxy(server_host);
  ChatServer chat(server_host);
  proxy.add_domain_route(ChatServer::kDomain, chat.endpoint());
  SipEndpoint mallory(net.add_host("mallory"), "sip:mallory@x", proxy.endpoint());
  mallory.register_with_proxy([](bool) {});
  loop.run();
  mallory.send_message(ChatServer::room_uri("nope"), "/join", [](bool) {});
  loop.run();
  bool ok = true;
  mallory.send_message(ChatServer::room_uri("other"), "sneaky", [&](bool r) { ok = r; });
  loop.run();
  EXPECT_FALSE(ok);
}

TEST_F(SipTest, PresenceNotifications) {
  SipProxy proxy(net.add_host("proxy"));
  SipEndpoint watcher(net.add_host("watcher"), "sip:w@x", proxy.endpoint());
  SipEndpoint target(net.add_host("target"), "sip:t@y", proxy.endpoint());
  watcher.register_with_proxy([](bool) {});
  loop.run();
  std::vector<std::string> statuses;
  watcher.subscribe_presence("sip:t@y", [&](const std::string& s) { statuses.push_back(s); });
  loop.run();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], "closed");  // immediate NOTIFY: not registered yet
  target.register_with_proxy([](bool) {});
  loop.run();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[1], "open");
  target.unregister([](bool) {});
  loop.run();
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[2], "closed");
}

class SipGatewayTest : public ::testing::Test {
 protected:
  SipGatewayTest()
      : broker_node(net.add_host("broker"), 0),
        sessions(net.add_host("xgsp"), broker_node.stream_endpoint()),
        gw_host(net.add_host("gateway")),
        gateway(gw_host, sessions, broker_node.stream_endpoint()),
        proxy(net.add_host("proxy")) {
    proxy.add_domain_route("gmmcs", gateway.endpoint());
  }
  sim::EventLoop loop;
  sim::Network net{loop, 37};
  broker::BrokerNode broker_node;
  xgsp::SessionServer sessions;
  sim::Host& gw_host;
  SipGateway gateway;
  SipProxy proxy;
};

TEST_F(SipGatewayTest, InviteJoinsXgspSessionAndBridgesMedia) {
  // An XGSP session already exists (created by the web server, say).
  xgsp::Message created = sessions.handle(xgsp::Message::create_session(
      "bridge-test", "gcf", xgsp::SessionMode::kAdHoc, {{"video", "H261"}}));
  std::string sid = created.sessions.front().id();

  // A broker-native participant subscribed to the video topic.
  broker::BrokerClient native(net.add_host("native"), broker_node.stream_endpoint());
  std::string topic = created.sessions.front().stream("video")->topic;
  native.subscribe(topic);
  media::MediaProbe native_probe(90000);
  native.on_event(
      [&](const broker::Event& ev) { native_probe.on_wire(ev.payload, loop.now()); });

  // The SIP caller with an RTP session.
  sim::Host& alice_host = net.add_host("alice");
  SipEndpoint alice(alice_host, "sip:alice@iu.edu", proxy.endpoint());
  rtp::RtpSession alice_rtp(alice_host, {.ssrc = 500, .payload_type = 31});
  alice.register_with_proxy([](bool) {});
  loop.run();

  Sdp offer;
  offer.address = alice_host.id();
  offer.media.push_back({"video", alice_rtp.local().port, 31, "H261/90000"});
  bool ok = false;
  Sdp answer;
  alice.invite(SipGateway::conference_uri(sid), offer,
               [&](bool success, const SipEndpoint::Call& call) {
                 ok = success;
                 answer = call.remote_sdp;
               });
  loop.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(gateway.active_calls(), 1u);
  EXPECT_TRUE(sessions.find(sid)->has_member("sip:alice@iu.edu"));
  auto gw_video = answer.media_endpoint("video");
  ASSERT_TRUE(gw_video.has_value());

  // Alice sends RTP to the gateway's answered endpoint -> broker topic ->
  // the native subscriber.
  alice_rtp.add_destination(*gw_video);
  for (int i = 0; i < 5; ++i) alice_rtp.send_media(Bytes(200, 1), 100 * i);
  loop.run();
  EXPECT_EQ(native_probe.stats().received(), 5u);

  // And media published by the native client reaches Alice's RTP session.
  rtp::RtpPacket pkt;
  pkt.ssrc = 900;
  pkt.payload_type = 31;
  pkt.payload = Bytes(150, 2);
  native.publish(topic, pkt.serialize());
  loop.run();
  EXPECT_EQ(alice_rtp.source_stats(900).received(), 1u);

  // BYE leaves the session and stops fan-out to Alice.
  bool bye_ok = false;
  alice.bye([&](bool r) { bye_ok = r; });
  loop.run();
  EXPECT_TRUE(bye_ok);
  EXPECT_FALSE(sessions.find(sid)->has_member("sip:alice@iu.edu"));
  native.publish(topic, pkt.serialize());
  loop.run();
  EXPECT_EQ(alice_rtp.source_stats(900).received(), 1u);  // unchanged
}

TEST_F(SipGatewayTest, TwoCallersOnOneHostKeepSeparateCalls) {
  // Two user agents sharing one host must mint distinct Call-IDs: the
  // proxy keys pending transactions and the gateway keys calls by them.
  xgsp::Message created = sessions.handle(xgsp::Message::create_session(
      "shared-host", "gcf", xgsp::SessionMode::kAdHoc, {{"audio", "PCMU"}}));
  std::string sid = created.sessions.front().id();

  sim::Host& shared = net.add_host("desk");
  SipEndpoint alice(shared, "sip:alice@iu.edu", proxy.endpoint());
  SipEndpoint bob(shared, "sip:bob@iu.edu", proxy.endpoint());
  int registered = 0;
  alice.register_with_proxy([&](bool ok) { registered += ok ? 1 : 0; });
  bob.register_with_proxy([&](bool ok) { registered += ok ? 1 : 0; });
  loop.run();
  EXPECT_EQ(registered, 2);

  int answered = 0;
  for (SipEndpoint* ep : {&alice, &bob}) {
    Sdp offer;
    offer.address = shared.id();
    offer.media.push_back({"audio", 0, 0, "PCMU/8000"});
    ep->invite(SipGateway::conference_uri(sid), offer,
               [&](bool ok, const SipEndpoint::Call&) { answered += ok ? 1 : 0; });
  }
  loop.run();
  EXPECT_EQ(answered, 2);
  ASSERT_TRUE(alice.active_call().has_value());
  ASSERT_TRUE(bob.active_call().has_value());
  EXPECT_NE(alice.active_call()->call_id, bob.active_call()->call_id);
  EXPECT_EQ(gateway.active_calls(), 2u);

  // Alice's BYE ends her leg only.
  bool bye_ok = false;
  alice.bye([&](bool ok) { bye_ok = ok; });
  loop.run();
  EXPECT_TRUE(bye_ok);
  EXPECT_EQ(gateway.active_calls(), 1u);
  EXPECT_FALSE(sessions.find(sid)->has_member("sip:alice@iu.edu"));
  EXPECT_TRUE(sessions.find(sid)->has_member("sip:bob@iu.edu"));
}

TEST_F(SipGatewayTest, InviteToUnknownSessionRejected) {
  SipEndpoint alice(net.add_host("alice"), "sip:alice@iu.edu", proxy.endpoint());
  alice.register_with_proxy([](bool) {});
  loop.run();
  bool ok = true;
  alice.invite(SipGateway::conference_uri("404"), Sdp{},
               [&](bool r, const SipEndpoint::Call&) { ok = r; });
  loop.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(gateway.active_calls(), 0u);
}

}  // namespace
}  // namespace gmmcs::sip
