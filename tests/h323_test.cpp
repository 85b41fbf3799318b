// Tests for the H.323 stack: RAS/Q.931/H.245 codecs, gatekeeper
// registration/admission/bandwidth, full terminal->gateway call flow with
// RTP bridged onto broker topics.
#include <gtest/gtest.h>

#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "h323/gatekeeper.hpp"
#include "h323/gateway.hpp"
#include "h323/messages.hpp"
#include "h323/terminal.hpp"
#include "media/probe.hpp"
#include "rtp/session.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "xgsp/session_server.hpp"

namespace gmmcs::h323 {
namespace {

TEST(H323Codec, RasRoundTrip) {
  RasMessage m;
  m.type = RasType::kAdmissionConfirm;
  m.seq = 42;
  m.endpoint_alias = "polycom-1";
  m.gatekeeper_id = "gmmcs-zone";
  m.call_signal_address = {7, 1720};
  m.bandwidth = 6000;
  m.destination_alias = "conf-3";
  auto r = RasMessage::decode(m.encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().type, RasType::kAdmissionConfirm);
  EXPECT_EQ(r.value().seq, 42u);
  EXPECT_EQ(r.value().call_signal_address.port, 1720);
  EXPECT_EQ(r.value().bandwidth, 6000u);
  EXPECT_EQ(r.value().destination_alias, "conf-3");
}

TEST(H323Codec, Q931RoundTrip) {
  Q931Message m;
  m.type = Q931Type::kConnect;
  m.call_reference = 9;
  m.calling_party = "terminal-a";
  m.called_party = "conf-12";
  m.h245_address = {3, 20001};
  auto r = Q931Message::decode(m.encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().type, Q931Type::kConnect);
  EXPECT_EQ(r.value().h245_address.node, 3u);
  EXPECT_EQ(r.value().called_party, "conf-12");
}

TEST(H323Codec, H245RoundTrip) {
  H245Message m;
  m.type = H245Type::kOpenLogicalChannel;
  m.seq = 5;
  m.capabilities = {0, 31};
  m.channel = 2;
  m.media_kind = "video";
  m.payload_type = 31;
  m.media_address = {4, 5004};
  auto r = H245Message::decode(m.encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().type, H245Type::kOpenLogicalChannel);
  EXPECT_EQ(r.value().capabilities, (std::vector<std::uint8_t>{0, 31}));
  EXPECT_EQ(r.value().media_kind, "video");
  EXPECT_EQ(r.value().media_address.port, 5004);
}

TEST(H323Codec, RejectsForeignAndTruncated) {
  EXPECT_FALSE(RasMessage::decode(Bytes{0x00, 0x01}).ok());
  EXPECT_FALSE(Q931Message::decode(Bytes{0x52, 0x05}).ok());
  RasMessage m;
  Bytes wire = m.encode();
  wire.resize(4);
  EXPECT_FALSE(RasMessage::decode(wire).ok());
}

class H323Test : public ::testing::Test {
 protected:
  H323Test()
      : gk(net.add_host("gatekeeper")),
        broker_node(net.add_host("broker"), 0),
        sessions(net.add_host("xgsp"), broker_node.stream_endpoint()),
        gateway(net.add_host("gateway"), sessions, broker_node.stream_endpoint()) {
    gk.set_conference_target(gateway.call_signal_endpoint());
  }

  std::string make_session(const std::string& kind = "video", const std::string& codec = "H261") {
    xgsp::Message created = sessions.handle(xgsp::Message::create_session(
        "h323-conf", "gcf", xgsp::SessionMode::kAdHoc, {{kind, codec}}));
    return created.sessions.front().id();
  }

  sim::EventLoop loop;
  sim::Network net{loop, 41};
  Gatekeeper gk;
  broker::BrokerNode broker_node;
  xgsp::SessionServer sessions;
  H323Gateway gateway;
};

TEST_F(H323Test, DiscoveryAndRegistration) {
  H323Terminal term(net.add_host("term"), "polycom-1", gk.ras_endpoint());
  bool discovered = false, registered = false;
  term.discover([&](bool ok) { discovered = ok; });
  loop.run();
  EXPECT_TRUE(discovered);
  term.register_endpoint([&](bool ok) { registered = ok; });
  loop.run();
  EXPECT_TRUE(registered);
  EXPECT_EQ(gk.registrations(), 1u);
  EXPECT_TRUE(gk.resolve("polycom-1").has_value());
}

TEST_F(H323Test, AdmissionRequiresRegistration) {
  H323Terminal term(net.add_host("term"), "rogue", gk.ras_endpoint());
  bool ok = true;
  term.call("conf-1", 1000, {}, [&](bool r, const H323Terminal::MediaTargets&) { ok = r; });
  loop.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(term.last_reject_reason(), "caller not registered");
}

TEST_F(H323Test, BandwidthBudgetEnforced) {
  Gatekeeper::Config cfg;
  cfg.bandwidth_budget = 5000;  // 500 kbps zone
  Gatekeeper small_gk(net.add_host("gk2"), cfg);
  small_gk.set_conference_target(gateway.call_signal_endpoint());
  std::string sid = make_session();
  H323Terminal t1(net.add_host("t1"), "t1", small_gk.ras_endpoint());
  H323Terminal t2(net.add_host("t2"), "t2", small_gk.ras_endpoint());
  t1.register_endpoint([](bool) {});
  t2.register_endpoint([](bool) {});
  loop.run();
  bool ok1 = false, ok2 = true;
  sim::Host& t1h = net.add_host("t1-media");
  transport::DatagramSocket rtp1(t1h);
  t1.call("conf-" + sid, 4000, {{"video", 31, rtp1.local()}},
          [&](bool r, const H323Terminal::MediaTargets&) { ok1 = r; });
  loop.run();
  EXPECT_TRUE(ok1);
  EXPECT_EQ(small_gk.bandwidth_in_use(), 4000u);
  t2.call("conf-" + sid, 4000, {}, [&](bool r, const H323Terminal::MediaTargets&) { ok2 = r; });
  loop.run();
  EXPECT_FALSE(ok2);
  EXPECT_EQ(t2.last_reject_reason(), "zone bandwidth exhausted");
  // Disengage releases the budget.
  bool hung = false;
  t1.hangup([&](bool r) { hung = r; });
  loop.run();
  EXPECT_TRUE(hung);
  EXPECT_EQ(small_gk.bandwidth_in_use(), 0u);
}

TEST_F(H323Test, FullCallBridgesMediaToBrokerTopic) {
  std::string sid = make_session();
  std::string topic = sessions.find(sid)->stream("video")->topic;

  // A broker-native observer of the session's video topic.
  broker::BrokerClient native(net.add_host("native"), broker_node.stream_endpoint());
  native.subscribe(topic);
  media::MediaProbe native_probe(90000);
  native.on_event([&](const broker::Event& ev) { native_probe.on_wire(ev.payload, loop.now()); });

  // H.323 terminal with an RTP session for video.
  sim::Host& th = net.add_host("terminal");
  H323Terminal term(th, "polycom-1", gk.ras_endpoint());
  rtp::RtpSession term_rtp(th, {.ssrc = 77, .payload_type = 31});
  term.register_endpoint([](bool) {});
  loop.run();
  bool ok = false;
  H323Terminal::MediaTargets targets;
  term.call("conf-" + sid, 6000, {{"video", 31, term_rtp.local()}},
            [&](bool r, const H323Terminal::MediaTargets& t) {
              ok = r;
              targets = t;
            });
  loop.run();
  ASSERT_TRUE(ok);
  ASSERT_TRUE(targets.contains("video"));
  EXPECT_EQ(gateway.active_calls(), 1u);
  EXPECT_TRUE(sessions.find(sid)->has_member("polycom-1"));

  // Terminal -> gateway -> topic -> native observer.
  term_rtp.add_destination(targets.at("video"));
  for (int i = 0; i < 4; ++i) term_rtp.send_media(Bytes(300, 1), 100 * i);
  loop.run();
  EXPECT_EQ(native_probe.stats().received(), 4u);

  // Native publisher -> topic -> gateway proxy -> terminal RTP.
  rtp::RtpPacket pkt;
  pkt.ssrc = 1234;
  pkt.payload_type = 31;
  pkt.payload = Bytes(100, 3);
  native.publish(topic, pkt.serialize());
  loop.run();
  EXPECT_EQ(term_rtp.source_stats(1234).received(), 1u);

  // Hangup tears everything down.
  bool hung = false;
  term.hangup([&](bool r) { hung = r; });
  loop.run();
  EXPECT_TRUE(hung);
  EXPECT_EQ(gateway.active_calls(), 0u);
  EXPECT_FALSE(sessions.find(sid)->has_member("polycom-1"));
  native.publish(topic, pkt.serialize());
  loop.run();
  EXPECT_EQ(term_rtp.source_stats(1234).received(), 1u);  // no longer fanned out
}

TEST_F(H323Test, GatekeeperIgnoresConfirmsAndRejects) {
  // Confirms and rejects are what the gatekeeper sends, never what it
  // serves: each one addressed to it draws no answer and changes no state.
  transport::DatagramSocket sock(net.add_host("stray"));
  int replies = 0;
  sock.on_receive([&](const sim::Datagram&) { ++replies; });
  std::uint32_t seq = 0;
  for (RasType t : {RasType::kGatekeeperConfirm, RasType::kGatekeeperReject,
                    RasType::kRegistrationConfirm, RasType::kRegistrationReject,
                    RasType::kAdmissionConfirm, RasType::kAdmissionReject,
                    RasType::kDisengageConfirm, RasType::kBandwidthConfirm,
                    RasType::kBandwidthReject}) {
    RasMessage m;
    m.type = t;
    m.seq = ++seq;
    m.endpoint_alias = "stray";
    m.call_signal_address = sock.local();
    m.bandwidth = 1000;
    m.destination_alias = "conf-1";
    sock.send_to(gk.ras_endpoint(), m.encode());
  }
  loop.run();
  EXPECT_EQ(replies, 0);
  EXPECT_EQ(gk.registrations(), 0u);
  EXPECT_EQ(gk.bandwidth_in_use(), 0u);
  // The same socket's request is answered, so silence above is the
  // gatekeeper's choice, not a lost path.
  RasMessage grq;
  grq.type = RasType::kGatekeeperRequest;
  sock.send_to(gk.ras_endpoint(), grq.encode());
  loop.run();
  EXPECT_EQ(replies, 1);
}

TEST_F(H323Test, CallToUnknownConferenceReleases) {
  H323Terminal term(net.add_host("term"), "t", gk.ras_endpoint());
  term.register_endpoint([](bool) {});
  loop.run();
  bool ok = true;
  term.call("conf-999", 1000, {}, [&](bool r, const H323Terminal::MediaTargets&) { ok = r; });
  loop.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(term.last_reject_reason(), "no such conference");
  EXPECT_EQ(gateway.active_calls(), 0u);
}

TEST_F(H323Test, OlcForMissingStreamRejected) {
  std::string sid = make_session("audio", "PCMU");  // session has audio only
  H323Terminal term(net.add_host("term"), "t", gk.ras_endpoint());
  term.register_endpoint([](bool) {});
  loop.run();
  sim::Host& mh = net.add_host("m");
  transport::DatagramSocket rtp(mh);
  bool ok = true;
  term.call("conf-" + sid, 1000, {{"video", 31, rtp.local()}},
            [&](bool r, const H323Terminal::MediaTargets&) { ok = r; });
  loop.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(term.last_reject_reason(), "no such media stream in session");
}

TEST_F(H323Test, TwoTerminalsShareOneBridge) {
  std::string sid = make_session();
  sim::Host& h1 = net.add_host("t1h");
  sim::Host& h2 = net.add_host("t2h");
  H323Terminal t1(h1, "t1", gk.ras_endpoint());
  H323Terminal t2(h2, "t2", gk.ras_endpoint());
  rtp::RtpSession rtp1(h1, {.ssrc = 1, .payload_type = 31});
  rtp::RtpSession rtp2(h2, {.ssrc = 2, .payload_type = 31});
  t1.register_endpoint([](bool) {});
  t2.register_endpoint([](bool) {});
  loop.run();
  H323Terminal::MediaTargets tg1, tg2;
  t1.call("conf-" + sid, 1000, {{"video", 31, rtp1.local()}},
          [&](bool, const H323Terminal::MediaTargets& t) { tg1 = t; });
  t2.call("conf-" + sid, 1000, {{"video", 31, rtp2.local()}},
          [&](bool, const H323Terminal::MediaTargets& t) { tg2 = t; });
  loop.run();
  ASSERT_TRUE(tg1.contains("video"));
  ASSERT_TRUE(tg2.contains("video"));
  // Both point at the same shared per-session proxy ingress.
  EXPECT_EQ(tg1.at("video"), tg2.at("video"));
  // t1's media reaches t2 through the topic (and not itself).
  rtp1.add_destination(tg1.at("video"));
  rtp1.send_media(Bytes(100, 1), 0);
  loop.run();
  EXPECT_EQ(rtp2.source_stats(1).received(), 1u);
}

}  // namespace
}  // namespace gmmcs::h323
