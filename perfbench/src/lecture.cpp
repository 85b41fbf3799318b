// lecture_fanout: the paper's C1/C2 shape on one broker.
//
// One speaker sends G.711 audio to every receiver and 600 Kbps video to a
// seeded quarter of them, with 100 receivers per host, over realistic
// XGSP-length topics. Per-copy fan-out, the sim core and client decode do
// nearly all the work; routing is one cached topic. A small closed loop of
// XGSP attendees joins and leaves the lecture session (audio only), so the
// session server, join latency and cache invalidation also run here.
#include <algorithm>
#include <memory>

#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/event.hpp"
#include "media/generator.hpp"
#include "media/probe.hpp"
#include "rtp/session.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "xgsp/client.hpp"
#include "xgsp/session_server.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace gmmcs;

namespace {

constexpr int kReceivers = 400;
constexpr int kPerHost = 100;
constexpr int kVideoReceivers = kReceivers / 4;
constexpr int kAttendees = 16;
constexpr SimDuration kLatency = duration_us(200);
constexpr SimDuration kMedia = duration_s(20);
/// Memberships end this long before a leave: several times the largest
/// delay below the knee, and enforced (a slower delivery fails the round).
constexpr SimDuration kGuard = duration_ms(200);
const std::string kAudioTopic = "/xgsp/session/2003-lecture/audio/pcmu-1";
const std::string kVideoTopic = "/xgsp/session/2003-lecture/video/mp4v-1";

struct Receiver {
  std::unique_ptr<broker::BrokerClient> client;
  MediaOracle::Rx rx = 0;
  media::MediaProbe audio{8000};
  std::unique_ptr<media::MediaProbe> video;
};

struct Attendee {
  std::unique_ptr<xgsp::XgspClient> client;
  MediaOracle::Rx rx = 0;
  media::MediaProbe audio{8000};
  Rng rng{1};
  SimTime joined_at;
  SimDuration latency;  // one-way path to the broker
};

}  // namespace

RoundOut run_lecture(const Params& p) {
  RoundOut out;
  double t0 = cpu_seconds();
  sim::EventLoop loop;
  sim::Network net(loop, p.seed);
  net.set_default_path(sim::PathConfig{.latency = kLatency, .loss = 0.0});
  sim::Host& broker_host = net.add_host("broker-0");
  broker::BrokerNode node(broker_host, 0);
  sim::Host& xgsp_host = net.add_host("xgsp-servers");
  xgsp::SessionServer sessions(xgsp_host, node.stream_endpoint());
  std::string sid = sessions
                        .handle(xgsp::Message::create_session(
                            "lecture 2003", "speaker", xgsp::SessionMode::kAdHoc,
                            {{"audio", "PCMU"}, {"video", "MP4V"}}))
                        .sessions.front()
                        .id();

  MediaOracle oracle;
  SignalOracle signals;
  Rng rng(p.seed);

  // The speaker.
  sim::Host& speaker = net.add_host("speaker");
  broker::BrokerClient publisher(speaker, node.stream_endpoint(),
                                 broker::BrokerClient::Config{.name = "speaker",
                                                              .udp_delivery = false});
  const media::CodecInfo& g711 = media::codecs::g711u();
  const media::CodecInfo& mp4v = media::codecs::mpeg4_sim();
  rtp::RtpSession audio_tx(speaker, {.ssrc = 0x1000, .payload_type = g711.payload_type,
                                     .clock_rate = g711.clock_rate});
  rtp::RtpSession video_tx(speaker, {.ssrc = 0x2000, .payload_type = mp4v.payload_type,
                                     .clock_rate = mp4v.clock_rate});
  MediaOracle::Pub audio_pub = oracle.add_publisher(0x1000, g711.clock_rate);
  MediaOracle::Pub video_pub = oracle.add_publisher(0x2000, mp4v.clock_rate);
  media::AudioSource audio(audio_tx, {.codec = g711, .seed = p.seed * 2 + 1});
  media::VideoSource video(video_tx, {.codec = mp4v, .seed = p.seed * 2 + 2});
  std::uint64_t publishes = 0;
  double publish_ns = 0;
  auto tap = [&](const std::string& topic) {
    return [&, topic](const Payload& wire) {
      oracle.on_publish(wire, loop.now());
      if (p.tracer != nullptr) {
        p.tracer->boundary(Layer::kClient);
        double a = wall_seconds();
        publisher.publish(topic, wire);
        publish_ns += (wall_seconds() - a) * 1e9;
        ++publishes;
      } else {
        publisher.publish(topic, wire);
      }
    };
  };
  audio_tx.on_send(tap(kAudioTopic));
  video_tx.on_send(tap(kVideoTopic));

  // Receivers: every one hears the audio, a seeded quarter the video.
  std::vector<int> order(kReceivers);
  for (int i = 0; i < kReceivers; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < kVideoReceivers; ++i) {
    auto j = static_cast<std::size_t>(rng.uniform_int(i, kReceivers - 1));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
  }
  std::vector<bool> wants_video(kReceivers, false);
  for (int i = 0; i < kVideoReceivers; ++i) wants_video[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = true;

  std::vector<sim::Host*> rx_hosts;
  for (int h = 0; h * kPerHost < kReceivers; ++h) {
    rx_hosts.push_back(&net.add_host("rx-machine-" + std::to_string(h)));
  }
  std::vector<std::unique_ptr<Receiver>> receivers;
  for (int i = 0; i < kReceivers; ++i) {
    auto r = std::make_unique<Receiver>();
    r->rx = oracle.add_receiver();
    r->client = std::make_unique<broker::BrokerClient>(
        *rx_hosts[static_cast<std::size_t>(i / kPerHost)], node.stream_endpoint(),
        broker::BrokerClient::Config{.name = "rx-" + std::to_string(i)});
    r->client->subscribe(kAudioTopic);
    if (wants_video[static_cast<std::size_t>(i)]) {
      r->client->subscribe(kVideoTopic);
      r->video = std::make_unique<media::MediaProbe>(mp4v.clock_rate);
    }
    Receiver* raw = r.get();
    r->client->on_event([&, raw](const broker::Event& ev) {
      if (p.tracer != nullptr) p.tracer->boundary(Layer::kClient);
      oracle.on_delivery(raw->rx, ev.payload, loop.now());
      bool is_video = ev.payload.size() > 1 && (ev.payload[1] & 0x7F) == mp4v.payload_type;
      (is_video ? *raw->video : raw->audio).on_wire(ev.payload, loop.now());
    });
    receivers.push_back(std::move(r));
  }

  // Attendees: a closed loop of XGSP join → listen → leave, each on its own
  // machine behind a WAN path of 1.2 to 8.7 ms (fixed per attendee).
  std::vector<sim::Host*> att_hosts;
  std::vector<std::unique_ptr<Attendee>> attendees;
  std::uint64_t notifications = 0;
  bool stopping = false;
  std::function<void(Attendee&)> join_cycle;
  auto leave_cycle = [&](Attendee& a) {
    oracle.expect(a.rx, audio_pub, a.joined_at, loop.now() - kGuard);
    a.client->broker_client().unsubscribe(kAudioTopic);
    signals.sent("xgsp");
    ++out.attempted;
    a.client->leave(sid, [&, pa = &a](const xgsp::Message& m) {
      signals.answered("xgsp", m.ok);
      ++out.signaling_ops;
      ++out.cycles;
      join_cycle(*pa);
    });
  };
  join_cycle = [&](Attendee& a) {
    if (stopping) return;
    a.client->subscribe_media(kAudioTopic);
    signals.sent("xgsp");
    ++out.attempted;
    SimTime asked = loop.now();
    a.client->join(sid, [&, pa = &a, asked](const xgsp::Message& m) {
      signals.answered("xgsp", m.ok && m.type == xgsp::MsgType::kJoinAck);
      ++out.signaling_ops;
      out.join_ns.push_back((loop.now() - asked).ns());
      out.join_ns_by_path["xgsp"].push_back((loop.now() - asked).ns());
      pa->joined_at = loop.now();
      auto dwell = duration_seconds(pa->rng.uniform(0.3, 0.6));
      loop.schedule_after(dwell, [&, pa] { leave_cycle(*pa); });
    });
  };
  for (int i = 0; i < kAttendees; ++i) {
    auto a = std::make_unique<Attendee>();
    a->rx = oracle.add_receiver();
    a->rng = Rng(1000 + static_cast<std::uint64_t>(i));
    a->latency = kLatency + duration_us(1000 + 500 * i);
    att_hosts.push_back(&net.add_host("attendee-" + std::to_string(i)));
    net.set_path(broker_host.id(), att_hosts.back()->id(),
                 sim::PathConfig{.latency = a->latency, .loss = 0.0});
    a->client = std::make_unique<xgsp::XgspClient>(*att_hosts.back(), node.stream_endpoint(),
                                                   "attendee-" + std::to_string(i));
    Attendee* raw = a.get();
    a->client->on_media([&, raw](const broker::Event& ev) {
      if (p.tracer != nullptr) p.tracer->boundary(Layer::kClient);
      oracle.on_delivery(raw->rx, ev.payload, loop.now());
      raw->audio.on_wire(ev.payload, loop.now());
    });
    a->client->on_notification([&](const xgsp::Message&) { ++notifications; });
    attendees.push_back(std::move(a));
  }

  oracle.set_max_delay(kGuard);
  // Receivers' oracle ids come first, then the attendees'.
  oracle.set_min_delay([&](MediaOracle::Rx rx, MediaOracle::Pub, std::size_t bytes) {
    auto ser = duration_ns(static_cast<std::int64_t>(static_cast<double>(bytes + 42) * 8.0));
    SimDuration last_hop = rx < kReceivers ? kLatency : attendees[rx - kReceivers]->latency;
    return kLatency + ser + last_hop + ser;
  });

  loop.run();  // handshakes and subscriptions settle
  out.setup_s = cpu_seconds() - t0;

  // Measured phase.
  SimTime media_start = loop.now();
  for (auto& r : receivers) {
    oracle.expect(r->rx, audio_pub, media_start, SimTime::infinity());
    if (r->video) oracle.expect(r->rx, video_pub, media_start, SimTime::infinity());
  }
  std::uint64_t ev0 = loop.executed();
  std::uint64_t dg0 = net.delivered();
  std::uint64_t enc0 = broker::event_encode_count();
  std::uint64_t in0 = node.events_in();
  std::uint64_t cp0 = node.copies_delivered();
  std::uint64_t hit0 = node.subscriptions().cache_hits();
  std::uint64_t miss0 = node.subscriptions().cache_misses();
  std::uint64_t req0 = sessions.requests_handled();
  std::uint64_t note0 = notifications;
  double backlog_sum = 0;
  std::uint64_t backlog_n = 0;
  if (p.tracer != nullptr) {
    p.tracer->attach(loop);
    p.tracer->attach_host(broker_host, Layer::kBroker,
                          [&](const sim::Datagram& d) { p.capture->broker_datagram(d); },
                          [&](const sim::Datagram&) {
                            backlog_sum += broker_host.nic_backlog_delay().to_ms();
                            ++backlog_n;
                          });
    p.tracer->attach_host(xgsp_host, Layer::kXgsp, [&](const sim::Datagram& d) {
      p.capture->xgsp_message(d);
    });
    p.tracer->attach_host(speaker, Layer::kClient);
    for (sim::Host* h : rx_hosts) {
      p.tracer->attach_host(*h, Layer::kClient,
                            [&](const sim::Datagram& d) { p.capture->broker_datagram(d); });
    }
    for (sim::Host* h : att_hosts) {
      p.tracer->attach_host(*h, Layer::kClient, [&](const sim::Datagram& d) {
        p.capture->xgsp_message(d);
      });
    }
  }
  std::uint64_t a0 = allocations();
  audio.start();
  video.start();
  for (auto& a : attendees) {
    Attendee* raw = a.get();
    loop.schedule_after(duration_seconds(raw->rng.uniform(0.0, 0.5)),
                        [&, raw] { join_cycle(*raw); });
  }
  run_measured(loop, kMedia, out, p.tracer);
  audio.stop();
  video.stop();
  if (p.capture != nullptr) p.capture->index = node.subscriptions();
  stopping = true;
  run_measured(loop, SimDuration{0}, out, p.tracer);
  out.allocs_measured = allocations() - a0 - out.ref_allocs;
  if (p.tracer != nullptr) p.tracer->stop();

  // Oracle.
  out.failures = oracle.verify();
  for (auto& r : receivers) {
    const auto& as = r->audio.stats();
    oracle.compare_probe(r->rx, audio_pub, as.received(), as.delay_ms().mean(), as.jitter_ms(),
                         out.failures);
    if (r->video) {
      const auto& vs = r->video->stats();
      oracle.compare_probe(r->rx, video_pub, vs.received(), vs.delay_ms().mean(), vs.jitter_ms(),
                           out.failures);
    }
  }
  for (auto& a : attendees) {
    const auto& as = a->audio.stats();
    oracle.compare_probe(a->rx, audio_pub, as.received(), as.delay_ms().mean(), as.jitter_ms(),
                         out.failures);
  }
  signals.finish(sessions.sessions(), 0, out.failures);

  out.deliveries = oracle.delivered();
  out.attempted += oracle.expected();
  out.failed = oracle.missing();
  for (const auto& [path, l] : signals.ledgers()) out.failed += l.refused + (l.sent - l.answered);
  out.delays_ns = oracle.delays_ns();
  out.jitter_ms = oracle.mean_jitter_ms();
  out.datagrams = net.delivered() - dg0;

  auto& L = out.layer;
  std::uint64_t events_in = node.events_in() - in0;
  L["sim.events"] = static_cast<double>(loop.executed() - ev0);
  L["sim.datagrams"] = static_cast<double>(out.datagrams);
  std::uint64_t dropped = 0;
  for (sim::NodeId h = 0; h < net.host_count(); ++h) dropped += net.host(h).nic_dropped();
  L["sim.nic_dropped"] = static_cast<double>(dropped);
  L["broker.events_in"] = static_cast<double>(events_in);
  L["broker.copies"] = static_cast<double>(node.copies_delivered() - cp0);
  L["broker.peer_forwards"] = 0;
  L["broker.jobs_dropped"] = static_cast<double>(node.jobs_dropped());
  L["broker.encodes_per_event"] =
      events_in == 0 ? 0 : static_cast<double>(broker::event_encode_count() - enc0) / static_cast<double>(events_in);
  std::uint64_t hits = node.subscriptions().cache_hits() - hit0;
  std::uint64_t misses = node.subscriptions().cache_misses() - miss0;
  L["broker.match_cache_hit_ratio"] =
      hits + misses == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
  L["broker.dispatch_wait_ms"] = node.dispatch().mean_wait().to_ms();
  L["xgsp.requests"] = static_cast<double>(sessions.requests_handled() - req0);
  L["xgsp.notifications"] = static_cast<double>(notifications - note0);
  if (p.tracer != nullptr) {
    L["sim.nic_backlog_ms"] = backlog_n == 0 ? 0 : backlog_sum / static_cast<double>(backlog_n);
    L["client.publish_ns"] = publishes == 0 ? 0 : publish_ns / static_cast<double>(publishes);
  }

  std::uint64_t sig = 0;
  for (std::int64_t d : out.delays_ns) sig = mix(sig, static_cast<std::uint64_t>(d));
  for (std::int64_t d : out.join_ns) sig = mix(sig, static_cast<std::uint64_t>(d));
  out.signature = mix(sig, out.signaling_ops);
  return out;
}

}  // namespace perfbench
