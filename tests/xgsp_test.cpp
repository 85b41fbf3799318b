// Tests for XGSP: session model, message vocabulary, session server over
// the broker, directory service, WSDL-CI binding, meeting scheduler.
#include <gtest/gtest.h>

#include "broker/broker_node.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "xgsp/client.hpp"
#include "xgsp/directory.hpp"
#include "xgsp/messages.hpp"
#include "xgsp/scheduler.hpp"
#include "xgsp/session.hpp"
#include "xgsp/session_server.hpp"
#include "xgsp/web_server.hpp"
#include "xgsp/wsdl_ci.hpp"

namespace gmmcs::xgsp {
namespace {

TEST(SessionModel, StreamsGetTopics) {
  Session s("7", "weekly", "alice", SessionMode::kAdHoc);
  s.add_stream("audio", "PCMU");
  s.add_stream("video", "H261");
  ASSERT_NE(s.stream("video"), nullptr);
  EXPECT_EQ(s.stream("video")->topic, "/xgsp/session/7/video");
  EXPECT_EQ(s.control_topic(), "/xgsp/session/7/control");
  EXPECT_EQ(s.stream("data"), nullptr);
}

TEST(SessionModel, MembershipLifecycle) {
  Session s("1", "t", "alice", SessionMode::kAdHoc);
  EXPECT_EQ(s.state(), SessionState::kCreated);
  EXPECT_TRUE(s.join({"alice", EndpointKind::kXgsp, true}));
  EXPECT_EQ(s.state(), SessionState::kActive);
  EXPECT_FALSE(s.join({"alice", EndpointKind::kSip, false}));  // duplicate
  EXPECT_TRUE(s.join({"bob", EndpointKind::kH323, false}));
  EXPECT_TRUE(s.leave("alice"));
  EXPECT_FALSE(s.leave("alice"));
  s.end();
  EXPECT_EQ(s.state(), SessionState::kEnded);
  EXPECT_FALSE(s.join({"carol", EndpointKind::kXgsp, false}));
}

TEST(SessionModel, FloorControlQueue) {
  Session s("1", "t", "a", SessionMode::kAdHoc);
  s.join({"a", EndpointKind::kXgsp, true});
  s.join({"b", EndpointKind::kSip, false});
  s.join({"c", EndpointKind::kH323, false});
  EXPECT_TRUE(s.request_floor("a"));
  EXPECT_FALSE(s.request_floor("b"));  // queued
  EXPECT_FALSE(s.request_floor("c"));
  EXPECT_EQ(s.floor_holder(), "a");
  ASSERT_EQ(s.floor_queue().size(), 2u);
  EXPECT_TRUE(s.release_floor("a"));
  EXPECT_EQ(s.floor_holder(), "b");
  // Leaving while holding passes the floor on.
  s.leave("b");
  EXPECT_EQ(s.floor_holder(), "c");
}

TEST(SessionModel, FloorRequiresMembership) {
  Session s("1", "t", "a", SessionMode::kAdHoc);
  EXPECT_FALSE(s.request_floor("stranger"));
}

TEST(SessionModel, XmlRoundTrip) {
  Session s("9", "Grid <Forum>", "gcf@iu", SessionMode::kScheduled);
  s.add_stream("audio", "PCMU");
  s.join({"gcf@iu", EndpointKind::kXgsp, true});
  s.join({"wewu@iu", EndpointKind::kAdmire, false});
  Session t = Session::from_xml(s.to_xml());
  EXPECT_EQ(t.id(), "9");
  EXPECT_EQ(t.title(), "Grid <Forum>");
  EXPECT_EQ(t.mode(), SessionMode::kScheduled);
  EXPECT_EQ(t.state(), SessionState::kActive);
  ASSERT_EQ(t.members().size(), 2u);
  EXPECT_EQ(t.members()[1].kind, EndpointKind::kAdmire);
  EXPECT_TRUE(t.members()[0].moderator);
  ASSERT_EQ(t.streams().size(), 1u);
  EXPECT_EQ(t.streams()[0].topic, "/xgsp/session/9/audio");
}

TEST(XgspMessages, RequestRoundTrips) {
  Message m = Message::create_session("sync", "alice", SessionMode::kScheduled,
                                      {{"audio", "PCMU"}, {"video", "H263"}});
  m.seq = 5;
  m.reply_to = "/xgsp/client/alice";
  auto r = Message::parse(m.serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().type, MsgType::kCreateSession);
  EXPECT_EQ(r.value().seq, 5u);
  EXPECT_EQ(r.value().title, "sync");
  EXPECT_EQ(r.value().mode, SessionMode::kScheduled);
  ASSERT_EQ(r.value().media.size(), 2u);
  EXPECT_EQ(r.value().media[1].codec, "H263");
}

TEST(XgspMessages, JoinCarriesEndpointKind) {
  Message m = Message::join("3", "bob", EndpointKind::kH323);
  auto r = Message::parse(m.serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().endpoint_kind, EndpointKind::kH323);
  EXPECT_EQ(r.value().session_id, "3");
}

TEST(XgspMessages, ErrorRoundTrip) {
  auto r = Message::parse(Message::error("nope").serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().ok);
  EXPECT_EQ(r.value().reason, "nope");
}

TEST(XgspMessages, RejectsUnknownType) {
  EXPECT_FALSE(Message::parse("<xgsp type=\"warp-drive\"/>").ok());
  EXPECT_FALSE(Message::parse("<notxgsp/>").ok());
}

class XgspServerTest : public ::testing::Test {
 protected:
  XgspServerTest() : broker_node(net.add_host("broker"), 0) {
    server = std::make_unique<SessionServer>(net.add_host("server"),
                                             broker_node.stream_endpoint());
  }
  sim::EventLoop loop;
  sim::Network net{loop, 17};
  broker::BrokerNode broker_node;
  std::unique_ptr<SessionServer> server;
};

TEST_F(XgspServerTest, InProcessCreateJoinLeaveEnd) {
  Message created = server->handle(
      Message::create_session("m", "alice", SessionMode::kAdHoc, {{"audio", "PCMU"}}));
  ASSERT_EQ(created.type, MsgType::kSessionInfo);
  std::string id = created.sessions.front().id();
  Message joined = server->handle(Message::join(id, "bob", EndpointKind::kSip));
  EXPECT_EQ(joined.type, MsgType::kJoinAck);
  EXPECT_TRUE(joined.sessions.front().has_member("bob"));
  Message left = server->handle(Message::leave(id, "bob"));
  EXPECT_EQ(left.type, MsgType::kAck);
  Message ended = server->handle(Message::end_session(id));
  EXPECT_EQ(ended.type, MsgType::kAck);
  EXPECT_EQ(server->find(id)->state(), SessionState::kEnded);
}

TEST_F(XgspServerTest, CreatorBecomesModerator) {
  Message created = server->handle(
      Message::create_session("m", "alice", SessionMode::kAdHoc, {}));
  std::string id = created.sessions.front().id();
  Message joined = server->handle(Message::join(id, "alice", EndpointKind::kXgsp));
  EXPECT_TRUE(joined.sessions.front().members().front().moderator);
}

TEST_F(XgspServerTest, DefaultsToAudioVideoStreams) {
  Message created = server->handle(
      Message::create_session("m", "alice", SessionMode::kAdHoc, {}));
  EXPECT_EQ(created.sessions.front().streams().size(), 2u);
}

TEST_F(XgspServerTest, JoinUnknownSessionFails) {
  Message r = server->handle(Message::join("999", "bob", EndpointKind::kSip));
  EXPECT_EQ(r.type, MsgType::kError);
  EXPECT_FALSE(r.ok);
}

TEST_F(XgspServerTest, ReplyKindsAreNotRequests) {
  // A reply kind arriving as a request is refused and creates nothing,
  // even when it carries the fields a create request would use.
  for (MsgType t : {MsgType::kSessionInfo, MsgType::kJoinAck, MsgType::kAck,
                    MsgType::kSessionList, MsgType::kFloorStatus, MsgType::kError}) {
    Message req = Message::create_session("stray", "mallory", SessionMode::kAdHoc, {});
    req.type = t;
    Message r = server->handle(req);
    EXPECT_EQ(r.type, MsgType::kError) << to_string(t);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.reason.find("not a request"), std::string::npos) << r.reason;
  }
  EXPECT_TRUE(server->sessions().empty());
  EXPECT_EQ(server->requests_handled(), 6u);
}

TEST_F(XgspServerTest, RemoteClientFullFlow) {
  XgspClient alice(net.add_host("alice"), broker_node.stream_endpoint(), "alice");
  XgspClient bob(net.add_host("bob"), broker_node.stream_endpoint(), "bob");
  std::string session_id;
  alice.create_session("weekly", SessionMode::kAdHoc, {{"video", "H261"}},
                       [&](const Message& r) {
                         ASSERT_EQ(r.type, MsgType::kSessionInfo);
                         session_id = r.sessions.front().id();
                       });
  loop.run();
  ASSERT_FALSE(session_id.empty());
  bool bob_joined = false;
  std::string video_topic;
  bob.join(session_id, [&](const Message& r) {
    ASSERT_EQ(r.type, MsgType::kJoinAck);
    bob_joined = true;
    video_topic = r.sessions.front().stream("video")->topic;
  });
  loop.run();
  ASSERT_TRUE(bob_joined);
  // Media plane: bob subscribes the topic from the join ack, alice sends.
  bob.subscribe_media(video_topic);
  int frames = 0;
  bob.on_media([&](const broker::Event&) { ++frames; });
  loop.run();
  alice.publish_media(video_topic, Bytes(100, 1));
  loop.run();
  EXPECT_EQ(frames, 1);
}

TEST_F(XgspServerTest, NotificationsReachJoinedClients) {
  XgspClient alice(net.add_host("alice"), broker_node.stream_endpoint(), "alice");
  XgspClient bob(net.add_host("bob"), broker_node.stream_endpoint(), "bob");
  std::string session_id;
  alice.create_session("weekly", SessionMode::kAdHoc, {}, [&](const Message& r) {
    session_id = r.sessions.front().id();
  });
  loop.run();
  alice.join(session_id, [](const Message&) {});
  loop.run();
  std::vector<std::string> alice_saw;
  alice.on_notification([&](const Message& m) { alice_saw.push_back(m.reason); });
  bob.join(session_id, [](const Message&) {});
  loop.run();
  ASSERT_FALSE(alice_saw.empty());
  EXPECT_EQ(alice_saw.back(), "join-session");
}

TEST_F(XgspServerTest, NotificationsStopAfterLeaveAndResumeOnRejoin) {
  XgspClient alice(net.add_host("alice"), broker_node.stream_endpoint(), "alice");
  XgspClient bob(net.add_host("bob"), broker_node.stream_endpoint(), "bob");
  std::string session_id;
  alice.create_session("weekly", SessionMode::kAdHoc, {}, [&](const Message& r) {
    session_id = r.sessions.front().id();
  });
  loop.run();
  alice.join(session_id, [](const Message&) {});
  loop.run();
  int alice_saw = 0;
  alice.on_notification([&](const Message&) { ++alice_saw; });
  bool left = false;
  alice.leave(session_id, [&](const Message& r) { left = r.type == MsgType::kAck; });
  loop.run();
  ASSERT_TRUE(left);

  // Roster changes of a session alice has left are not hers to hear.
  alice_saw = 0;
  bob.join(session_id, [](const Message&) {});
  loop.run();
  bob.leave(session_id, [](const Message&) {});
  loop.run();
  EXPECT_EQ(alice_saw, 0);

  // Re-joining subscribes again.
  alice.join(session_id, [](const Message&) {});
  loop.run();
  alice_saw = 0;
  bob.join(session_id, [](const Message&) {});
  loop.run();
  EXPECT_GT(alice_saw, 0);
}

TEST_F(XgspServerTest, FloorControlOverBroker) {
  XgspClient alice(net.add_host("alice"), broker_node.stream_endpoint(), "alice");
  std::string session_id;
  alice.create_session("f", SessionMode::kAdHoc, {}, [&](const Message& r) {
    session_id = r.sessions.front().id();
  });
  loop.run();
  alice.join(session_id, [](const Message&) {});
  loop.run();
  std::string holder;
  alice.request_floor(session_id, [&](const Message& r) {
    ASSERT_EQ(r.type, MsgType::kFloorStatus);
    holder = r.floor_holder;
  });
  loop.run();
  EXPECT_EQ(holder, "alice");
}

TEST(DirectoryData, UserAndTerminalBinding) {
  Directory d;
  EXPECT_TRUE(d.register_user({.id = "alice", .display_name = "Alice", .community = "iu"}));
  EXPECT_FALSE(d.register_user({.id = "alice"}));  // duplicate
  EXPECT_TRUE(d.bind_terminal("alice", EndpointKind::kSip, "sip:alice@iu.edu"));
  EXPECT_FALSE(d.bind_terminal("ghost", EndpointKind::kSip, "x"));
  const UserAccount* u = d.find_user("alice");
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->terminal_kind, EndpointKind::kSip);
  EXPECT_EQ(u->terminal_address, "sip:alice@iu.edu");
}

TEST(DirectoryData, CommunityRegistry) {
  Directory d;
  d.register_community({.name = "admire-beihang", .kind = "admire",
                        .web_service = {5, 8088}, .wsdl_ci = "<wsdl-ci/>"});
  const CommunityRecord* c = d.find_community("admire-beihang");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->web_service.port, 8088);
  EXPECT_EQ(d.community_names().size(), 1u);
}

TEST(WsdlCiDescriptor, RoundTrip) {
  WsdlCi d;
  d.service_name = "AdmireConferenceService";
  d.community = "admire";
  d.endpoint = {4, 8088};
  d.establish_op = "GetRendezvous";
  auto r = WsdlCi::parse(d.serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().service_name, "AdmireConferenceService");
  EXPECT_EQ(r.value().establish_op, "GetRendezvous");
  EXPECT_EQ(r.value().membership_op, "SessionMembership");  // default preserved
  EXPECT_EQ(r.value().endpoint.node, 4u);
}

TEST(WsdlCiDescriptor, RejectsMalformed) {
  EXPECT_FALSE(WsdlCi::parse("<other/>").ok());
  EXPECT_FALSE(WsdlCi::parse("<wsdl-ci service=\"x\"/>").ok());  // no endpoint
}

class XgspSoapTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  sim::Network net{loop, 23};
};

TEST_F(XgspSoapTest, DirectoryServiceOverSoap) {
  sim::Host& server_host = net.add_host("dir");
  sim::Host& client_host = net.add_host("client");
  DirectoryServer server(server_host);
  DirectoryClient client(client_host, server.endpoint());
  bool registered = false;
  client.register_user({.id = "auyar", .display_name = "Ahmet", .community = "syr"},
                       [&](bool ok) { registered = ok; });
  loop.run();
  ASSERT_TRUE(registered);
  std::optional<UserAccount> found;
  client.lookup_user("auyar", [&](std::optional<UserAccount> u) { found = std::move(u); });
  loop.run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->display_name, "Ahmet");
  std::optional<UserAccount> missing = UserAccount{};
  client.lookup_user("nobody", [&](std::optional<UserAccount> u) { missing = std::move(u); });
  loop.run();
  EXPECT_FALSE(missing.has_value());
}

TEST_F(XgspSoapTest, WebServerCreateJoinOverSoap) {
  sim::Host& broker_host = net.add_host("broker");
  broker::BrokerNode broker_node(broker_host, 0);
  sim::Host& server_host = net.add_host("xgsp");
  SessionServer sessions(server_host, broker_node.stream_endpoint());
  Directory directory;
  directory.register_user({.id = "alice", .display_name = "Alice", .community = "iu"});
  WebServer web(server_host, sessions, directory);
  soap::SoapClient portal(net.add_host("portal"), web.endpoint());
  std::string session_id;
  xml::Element create("CreateSession");
  create.set_attr("title", "demo");
  create.set_attr("creator", "alice");
  portal.call(std::move(create), [&](Result<xml::Element> r) {
    ASSERT_TRUE(r.ok());
    session_id = r.value().child("session")->attr("id");
  });
  loop.run();
  ASSERT_FALSE(session_id.empty());
  xml::Element join("JoinSession");
  join.set_attr("session", session_id);
  join.set_attr("user", "alice");
  bool joined = false;
  portal.call(std::move(join), [&](Result<xml::Element> r) {
    ASSERT_TRUE(r.ok());
    joined = true;
  });
  loop.run();
  EXPECT_TRUE(joined);
  EXPECT_TRUE(sessions.find(session_id)->has_member("alice"));
}

TEST_F(XgspSoapTest, SchedulerAutoStartsAndEndsMeetings) {
  sim::Host& broker_host = net.add_host("broker");
  broker::BrokerNode broker_node(broker_host, 0);
  SessionServer sessions(net.add_host("xgsp"), broker_node.stream_endpoint());
  MeetingScheduler scheduler(loop, sessions);
  std::string started_session;
  bool finished = false;
  scheduler.on_started([&](const Reservation& r) { started_session = r.session_id; });
  scheduler.on_finished([&](const Reservation&) { finished = true; });
  std::string resv = scheduler.reserve("quarterly", "gcf", SimTime{duration_s(60).ns()},
                                       duration_s(30), {"wewu", "auyar"});
  EXPECT_EQ(scheduler.upcoming().size(), 1u);
  loop.run_until(SimTime{duration_s(59).ns()});
  EXPECT_TRUE(started_session.empty());
  loop.run_until(SimTime{duration_s(61).ns()});
  ASSERT_FALSE(started_session.empty());
  EXPECT_EQ(sessions.find(started_session)->mode(), SessionMode::kScheduled);
  loop.run_until(SimTime{duration_s(95).ns()});
  EXPECT_TRUE(finished);
  EXPECT_EQ(sessions.find(started_session)->state(), SessionState::kEnded);
  EXPECT_EQ(scheduler.find(resv)->session_id, started_session);
}

TEST_F(XgspSoapTest, SchedulerCancelPreventsStart) {
  sim::Host& broker_host = net.add_host("broker");
  broker::BrokerNode broker_node(broker_host, 0);
  SessionServer sessions(net.add_host("xgsp"), broker_node.stream_endpoint());
  MeetingScheduler scheduler(loop, sessions);
  std::string resv = scheduler.reserve("never", "gcf", SimTime{duration_s(10).ns()},
                                       duration_s(10), {});
  EXPECT_TRUE(scheduler.cancel(resv));
  loop.run_until(SimTime{duration_s(30).ns()});
  EXPECT_TRUE(sessions.sessions().empty());
  EXPECT_THROW(scheduler.reserve("past", "gcf", SimTime{duration_s(1).ns()}, duration_s(1), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace gmmcs::xgsp
