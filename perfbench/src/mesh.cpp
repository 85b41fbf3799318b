// session_mesh: many small sessions on a multi-broker tree.
//
// Seven brokers in a binary tree (2 ms broker-to-broker paths) carry 60
// concurrent XGSP sessions of 8 members each, spread over the brokers.
// Each session has one talker sending G.711 audio with talkspurts (seeded
// start phase); the other members leave and rejoin (XGSP leave/join plus
// media unsubscribe/subscribe). Broker routing does most of the per-event work:
// SubscriptionIndex matches and cache invalidation under churn, interest
// propagation and peer forwarding; per-event fan-out is small.
#include <memory>
#include <queue>

#include "broker/broker_network.hpp"
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

constexpr int kBrokers = 7;
constexpr int kSessions = 60;
constexpr int kMembers = 8;
constexpr SimDuration kLanLatency = duration_us(200);
constexpr SimDuration kWanLatency = duration_ms(2);
constexpr SimDuration kMedia = duration_s(10);
constexpr SimDuration kGuard = duration_ms(500);
// Binary tree: 0 is the root (and hosts the session server's broker).
constexpr std::pair<int, int> kLinks[] = {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}};

struct Member {
  std::unique_ptr<xgsp::XgspClient> client;
  int session = 0;
  int broker = 0;
  bool talker = false;
  MediaOracle::Rx rx = 0;
  media::MediaProbe audio{8000};
  Rng rng{1};
  SimTime joined_at;
};

struct Talk {
  std::string sid;
  std::string topic;
  std::unique_ptr<rtp::RtpSession> tx;
  std::unique_ptr<media::AudioSource> source;
  MediaOracle::Pub pub = 0;
  int broker = 0;
};

}  // namespace

RoundOut run_mesh(const Params& p) {
  RoundOut out;
  double t0 = cpu_seconds();
  sim::EventLoop loop;
  sim::Network net(loop, p.seed);
  net.set_default_path(sim::PathConfig{.latency = kLanLatency, .loss = 0.0});
  broker::BrokerNetwork fabric(net);
  std::vector<sim::Host*> broker_hosts;
  for (int b = 0; b < kBrokers; ++b) {
    broker_hosts.push_back(&net.add_host("broker-" + std::to_string(b)));
    fabric.add_broker(*broker_hosts.back());
  }
  // Hop distances from the benchmark's own copy of the topology (BFS), for
  // the oracle's delay bound.
  std::vector<std::vector<int>> adj(kBrokers);
  for (auto [a, b] : kLinks) {
    fabric.link(static_cast<broker::BrokerId>(a), static_cast<broker::BrokerId>(b));
    net.set_path(broker_hosts[static_cast<std::size_t>(a)]->id(),
                 broker_hosts[static_cast<std::size_t>(b)]->id(),
                 sim::PathConfig{.latency = kWanLatency, .loss = 0.0});
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  fabric.finalize();
  std::vector<std::vector<int>> dist(kBrokers, std::vector<int>(kBrokers, -1));
  for (int s = 0; s < kBrokers; ++s) {
    std::queue<int> q;
    dist[static_cast<std::size_t>(s)][static_cast<std::size_t>(s)] = 0;
    q.push(s);
    while (!q.empty()) {
      int u = q.front();
      q.pop();
      for (int v : adj[static_cast<std::size_t>(u)]) {
        auto& d = dist[static_cast<std::size_t>(s)][static_cast<std::size_t>(v)];
        if (d < 0) {
          d = dist[static_cast<std::size_t>(s)][static_cast<std::size_t>(u)] + 1;
          q.push(v);
        }
      }
    }
  }

  sim::Host& xgsp_host = net.add_host("xgsp-servers");
  xgsp::SessionServer sessions(xgsp_host, fabric.broker(0).stream_endpoint());
  // One member machine per broker, on an access path of 200-300 us (seeded).
  Rng rng(p.seed);
  std::vector<sim::Host*> member_hosts;
  std::vector<SimDuration> access;
  for (int b = 0; b < kBrokers; ++b) {
    member_hosts.push_back(&net.add_host("members-" + std::to_string(b)));
    access.push_back(kLanLatency + duration_us(rng.uniform_int(0, 100)));
    net.set_path(member_hosts.back()->id(), broker_hosts[static_cast<std::size_t>(b)]->id(),
                 sim::PathConfig{.latency = access.back(), .loss = 0.0});
  }

  MediaOracle oracle;
  SignalOracle signals;
  const media::CodecInfo& g711 = media::codecs::g711u();
  std::vector<Talk> talks(kSessions);
  std::vector<std::unique_ptr<Member>> members;
  std::uint64_t notifications = 0;
  std::uint64_t publishes = 0;
  double publish_ns = 0;
  for (int s = 0; s < kSessions; ++s) {
    Talk& t = talks[static_cast<std::size_t>(s)];
    t.sid = sessions
                .handle(xgsp::Message::create_session("mesh session " + std::to_string(s),
                                                      "chair", xgsp::SessionMode::kAdHoc,
                                                      {{"audio", "PCMU"}}))
                .sessions.front()
                .id();
    t.topic = "/xgsp/session/" + t.sid + "/audio/pcmu-1";
    for (int m = 0; m < kMembers; ++m) {
      auto mem = std::make_unique<Member>();
      mem->session = s;
      mem->talker = m == 0;
      // Members spread round-robin over the brokers and churn on a fixed
      // per-member schedule; the seed drives access paths and talker phase
      // offsets (a seeded placement or churn schedule left the jitter too
      // seed-sensitive to compare two commits by, see README.md).
      mem->broker = (s + m) % kBrokers;
      mem->rng = Rng(7919 + static_cast<std::uint64_t>(s * kMembers + m));
      mem->rx = oracle.add_receiver();
      sim::Host& h = *member_hosts[static_cast<std::size_t>(mem->broker)];
      mem->client = std::make_unique<xgsp::XgspClient>(
          h, fabric.broker(static_cast<broker::BrokerId>(mem->broker)).stream_endpoint(),
          "s" + std::to_string(s) + "-member-" + std::to_string(m));
      Member* raw = mem.get();
      mem->client->on_media([&, raw](const broker::Event& ev) {
        if (p.tracer != nullptr) p.tracer->boundary(Layer::kClient);
        oracle.on_delivery(raw->rx, ev.payload, loop.now());
        raw->audio.on_wire(ev.payload, loop.now());
      });
      mem->client->on_notification([&](const xgsp::Message&) { ++notifications; });
      if (mem->talker) {
        t.broker = mem->broker;
        auto ssrc = static_cast<std::uint32_t>(0x10000 + s);
        t.pub = oracle.add_publisher(ssrc, g711.clock_rate);
        t.tx = std::make_unique<rtp::RtpSession>(
            h, rtp::RtpSession::Config{.ssrc = ssrc, .payload_type = g711.payload_type,
                                       .clock_rate = g711.clock_rate});
        t.source = std::make_unique<media::AudioSource>(
            *t.tx, media::AudioSource::Config{.codec = g711,
                                              .talkspurt = true,
                                              .seed = 131 + static_cast<std::uint64_t>(s)});
        t.tx->on_send([&, raw, &t = t](const Payload& wire) {
          oracle.on_publish(wire, loop.now());
          if (p.tracer != nullptr) {
            p.tracer->boundary(Layer::kClient);
            double a = wall_seconds();
            raw->client->publish_media(t.topic, wire);
            publish_ns += (wall_seconds() - a) * 1e9;
            ++publishes;
          } else {
            raw->client->publish_media(t.topic, wire);
          }
        });
      }
      members.push_back(std::move(mem));
    }
  }

  oracle.set_max_delay(kGuard);
  oracle.set_min_delay([&](MediaOracle::Rx rx, MediaOracle::Pub pub, std::size_t bytes) {
    const Member& m = *members[rx];
    int a = talks[pub].broker;
    int hops = dist[static_cast<std::size_t>(a)][static_cast<std::size_t>(m.broker)];
    auto ser = duration_ns(static_cast<std::int64_t>(static_cast<double>(bytes + 42) * 8.0));
    return access[static_cast<std::size_t>(a)] + access[static_cast<std::size_t>(m.broker)] +
           ser * 2 + (kWanLatency + ser) * hops;
  });

  bool stopping = false;
  std::function<void(Member&)> join_cycle;
  std::function<void(Member&)> leave_cycle = [&](Member& m) {
    const Talk& t = talks[static_cast<std::size_t>(m.session)];
    if (!m.talker) {
      oracle.expect(m.rx, t.pub, m.joined_at, loop.now() - kGuard);
      m.client->broker_client().unsubscribe(t.topic);
    }
    signals.sent("xgsp");
    ++out.attempted;
    m.client->leave(t.sid, [&, pm = &m](const xgsp::Message& r) {
      signals.answered("xgsp", r.ok);
      ++out.signaling_ops;
      ++out.cycles;
      if (stopping) return;
      auto away = duration_seconds(pm->rng.uniform(0.3, 1.0));
      loop.schedule_after(away, [&, pm] { join_cycle(*pm); });
    });
  };
  join_cycle = [&](Member& m) {
    if (stopping) return;
    const Talk& t = talks[static_cast<std::size_t>(m.session)];
    m.client->subscribe_media(t.topic);
    signals.sent("xgsp");
    ++out.attempted;
    SimTime asked = loop.now();
    m.client->join(t.sid, [&, pm = &m, asked](const xgsp::Message& r) {
      signals.answered("xgsp", r.ok && r.type == xgsp::MsgType::kJoinAck);
      ++out.signaling_ops;
      out.join_ns.push_back((loop.now() - asked).ns());
      out.join_ns_by_path["xgsp"].push_back((loop.now() - asked).ns());
      pm->joined_at = loop.now();
      if (stopping) {
        leave_cycle(*pm);
        return;
      }
      auto dwell = duration_seconds(pm->rng.uniform(1.5, 3.5));
      loop.schedule_after(dwell, [&, pm] { leave_cycle(*pm); });
    });
  };

  // Setup: every member joins its session (not timed as signaling work).
  for (auto& m : members) {
    const Talk& t = talks[static_cast<std::size_t>(m->session)];
    if (!m->talker) m->client->subscribe_media(t.topic);
    m->client->join(t.sid, [&, pm = m.get()](const xgsp::Message& r) {
      if (!r.ok) out.failures.add("mesh setup: join refused");
      pm->joined_at = loop.now();
    });
  }
  loop.run();
  out.setup_s = cpu_seconds() - t0;

  SimTime media_start = loop.now();
  for (auto& m : members) m->joined_at = media_start;
  std::uint64_t ev0 = loop.executed();
  std::uint64_t dg0 = net.delivered();
  std::uint64_t enc0 = broker::event_encode_count();
  std::uint64_t in0 = 0, cp0 = 0, fw0 = 0, hit0 = 0, miss0 = 0;
  for (int b = 0; b < kBrokers; ++b) {
    auto& n = fabric.broker(static_cast<broker::BrokerId>(b));
    in0 += n.events_in();
    cp0 += n.copies_delivered();
    fw0 += n.peer_forwards();
    hit0 += n.subscriptions().cache_hits();
    miss0 += n.subscriptions().cache_misses();
  }
  std::uint64_t req0 = sessions.requests_handled();
  std::uint64_t note0 = notifications;
  double backlog_sum = 0;
  std::uint64_t backlog_n = 0;
  if (p.tracer != nullptr) {
    p.tracer->attach(loop);
    for (sim::Host* h : broker_hosts) {
      p.tracer->attach_host(*h, Layer::kBroker,
                            [&](const sim::Datagram& d) { p.capture->broker_datagram(d); },
                            [&, h](const sim::Datagram&) {
                              backlog_sum += h->nic_backlog_delay().to_ms();
                              ++backlog_n;
                            });
    }
    p.tracer->attach_host(xgsp_host, Layer::kXgsp, [&](const sim::Datagram& d) {
      p.capture->xgsp_message(d);
    });
    for (sim::Host* h : member_hosts) {
      p.tracer->attach_host(*h, Layer::kClient, [&](const sim::Datagram& d) {
        p.capture->broker_datagram(d);
        p.capture->xgsp_message(d);
      });
    }
  }
  std::uint64_t a0 = allocations();
  // Talkers start evenly phased across one 20 ms packet interval, each
  // displaced by a seeded 0-150 us.
  for (std::size_t s = 0; s < talks.size(); ++s) {
    media::AudioSource* src = talks[s].source.get();
    auto phase = static_cast<std::int64_t>(s) * 20000 / kSessions + rng.uniform_int(0, 150);
    loop.schedule_after(duration_us(phase), [src] { src->start(); });
  }
  for (auto& m : members) {
    if (m->talker) continue;
    Member* raw = m.get();
    loop.schedule_after(duration_seconds(raw->rng.uniform(0.5, 3.5)), [&, raw] { leave_cycle(*raw); });
  }
  run_measured(loop, kMedia, out, p.tracer);
  for (auto& t : talks) t.source->stop();
  if (p.capture != nullptr) {
    std::size_t best = 0;
    for (int b = 0; b < kBrokers; ++b) {
      const auto& idx = fabric.broker(static_cast<broker::BrokerId>(b)).subscriptions();
      if (idx.entry_count() > best) {
        best = idx.entry_count();
        p.capture->index = idx;
      }
    }
  }
  stopping = true;
  for (auto& m : members) {
    if (m->talker) leave_cycle(*m);
  }
  run_measured(loop, SimDuration{0}, out, p.tracer);
  out.allocs_measured = allocations() - a0 - out.ref_allocs;
  if (p.tracer != nullptr) p.tracer->stop();

  out.failures.merge(oracle.verify());
  for (auto& m : members) {
    if (m->talker) continue;
    const auto& as = m->audio.stats();
    oracle.compare_probe(m->rx, talks[static_cast<std::size_t>(m->session)].pub, as.received(),
                         as.delay_ms().mean(), as.jitter_ms(), out.failures);
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
  std::uint64_t in = 0, cp = 0, fw = 0, hits = 0, misses = 0, dropped_jobs = 0;
  double wait_sum = 0, wait_n = 0;
  for (int b = 0; b < kBrokers; ++b) {
    auto& n = fabric.broker(static_cast<broker::BrokerId>(b));
    in += n.events_in();
    cp += n.copies_delivered();
    fw += n.peer_forwards();
    hits += n.subscriptions().cache_hits();
    misses += n.subscriptions().cache_misses();
    dropped_jobs += n.jobs_dropped();
    auto c = static_cast<double>(n.dispatch().completed());
    wait_sum += n.dispatch().mean_wait().to_ms() * c;
    wait_n += c;
  }
  std::uint64_t events_in = in - in0;
  L["sim.events"] = static_cast<double>(loop.executed() - ev0);
  L["sim.datagrams"] = static_cast<double>(out.datagrams);
  std::uint64_t dropped = 0;
  for (sim::NodeId h = 0; h < net.host_count(); ++h) dropped += net.host(h).nic_dropped();
  L["sim.nic_dropped"] = static_cast<double>(dropped);
  L["broker.events_in"] = static_cast<double>(events_in);
  L["broker.copies"] = static_cast<double>(cp - cp0);
  L["broker.peer_forwards"] = static_cast<double>(fw - fw0);
  L["broker.jobs_dropped"] = static_cast<double>(dropped_jobs);
  L["broker.encodes_per_event"] =
      events_in == 0 ? 0 : static_cast<double>(broker::event_encode_count() - enc0) / static_cast<double>(events_in);
  hits -= hit0;
  misses -= miss0;
  L["broker.match_cache_hit_ratio"] =
      hits + misses == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
  L["broker.dispatch_wait_ms"] = wait_n == 0 ? 0 : wait_sum / wait_n;
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
