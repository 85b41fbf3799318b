// conference_signaling: the assembled core::GlobalMmcs under session churn.
//
// SIP endpoints (INVITE/200/ACK, BYE), H.323 terminals (ARQ, Setup/Connect,
// H.245, hangup with DRQ), native XGSP clients (join, floor request and
// release, leave) and a SOAP portal (InviteCommunity to Admire, then
// LeaveSession) each run a closed loop of join→leave cycles, rotating over
// eight sessions. Six H.323 calls at 6000 units fit the gatekeeper's 40000
// unit zone budget, so admission never rejects. Four G.711 streams with four
// listeners each keep the media figures defined; the xml, xgsp, sip, h323,
// soap and reliable-QoS layers do nearly all the work.
#include <memory>

#include "broker/client.hpp"
#include "core/global_mmcs.hpp"
#include "h323/gateway.hpp"
#include "h323/terminal.hpp"
#include "media/generator.hpp"
#include "media/probe.hpp"
#include "rtp/session.hpp"
#include "sip/endpoint.hpp"
#include "soap/soap.hpp"
#include "xgsp/client.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace gmmcs;

namespace {

constexpr int kSessions = 8;
constexpr int kSip = 12;
constexpr int kH323 = 6;
constexpr std::uint32_t kH323Bandwidth = 6000;
constexpr int kXgsp = 12;
constexpr int kTalkers = 4;
constexpr int kListeners = 4;  // per talker
constexpr SimDuration kLatency = duration_us(200);
constexpr SimDuration kSpan = duration_s(12);
/// Think time between an endpoint's cycles, uniform in this range: keeps
/// the broker's dispatch plane near half load, below its knee.
constexpr std::int64_t kThinkMinNs = 30'000'000;
constexpr std::int64_t kThinkMaxNs = 70'000'000;

/// Rotation and think-time state of one closed-loop endpoint.
struct Loop {
  int index = 0;
  int cycle = 0;
  Rng rng{1};
};

}  // namespace

RoundOut run_signaling(const Params& p) {
  RoundOut out;
  double t0 = cpu_seconds();
  sim::EventLoop loop;
  core::GlobalMmcs mmcs(loop, core::GlobalMmcs::Config{.with_streaming = false, .seed = p.seed});
  std::vector<std::string> sids;
  for (int s = 0; s < kSessions; ++s) {
    sids.push_back(mmcs.create_session("conference " + std::to_string(s), "chair",
                                       {{"audio", "PCMU"}, {"video", "H261"}}));
  }
  SignalOracle signals;
  MediaOracle oracle;
  Rng rng(p.seed);
  bool stopping = false;
  std::uint64_t notifications = 0;
  std::uint64_t sip_ops = 0, h323_ops = 0, soap_invites = 0;
  // Client machines reach their server host over an access path of
  // 200-220 us (seeded).
  Rng access_rng(p.seed * 31 + 7);
  auto client_host = [&](const std::string& name, sim::Endpoint server) -> sim::Host& {
    sim::Host& h = mmcs.add_client_host(name);
    mmcs.network().set_path(h.id(), server.node,
                            sim::PathConfig{.latency = kLatency + duration_us(access_rng.uniform_int(0, 20)),
                                            .loss = 0.0});
    return h;
  };

  auto pick = [&](Loop& l) {
    return sids[static_cast<std::size_t>((l.index + l.cycle++) % kSessions)];
  };
  auto think = [&](Loop& l) { return duration_ns(l.rng.uniform_int(kThinkMinNs, kThinkMaxNs)); };
  auto joined = [&](const char* path, SimTime asked) {
    auto ns = (loop.now() - asked).ns();
    out.join_ns.push_back(ns);
    out.join_ns_by_path[path].push_back(ns);
  };
  auto op = [&](const char* path) {
    signals.sent(path);
    ++out.attempted;
  };
  auto done = [&](const char* path, bool ok) {
    signals.answered(path, ok);
    ++out.signaling_ops;
  };

  // --- SIP endpoints: INVITE the conference URI, then BYE. ---
  // One machine per endpoint: the SIP stack's Call-IDs are unique per host
  // only, so endpoints sharing a host would collide (see CHANGES.md).
  std::vector<sim::Host*> sip_hosts;
  std::vector<std::unique_ptr<sip::SipEndpoint>> sips;
  std::vector<Loop> sip_loops(kSip);
  std::function<void(int)> sip_cycle = [&](int i) {
    if (stopping) return;
    Loop& l = sip_loops[static_cast<std::size_t>(i)];
    sip::SipEndpoint& ep = *sips[static_cast<std::size_t>(i)];
    sip::Sdp offer;
    offer.address = sip_hosts[static_cast<std::size_t>(i)]->id();
    offer.media.push_back({"audio", 20000, 0, "PCMU/8000"});
    op("sip");
    SimTime asked = loop.now();
    ep.invite(sip::SipGateway::conference_uri(pick(l)), offer,
              [&, i, asked](bool ok, const sip::SipEndpoint::Call&) {
                done("sip", ok);
                ++sip_ops;
                joined("sip", asked);
                op("sip");
                sips[static_cast<std::size_t>(i)]->bye([&, i](bool bye_ok) {
                  done("sip", bye_ok);
                  ++sip_ops;
                  ++out.cycles;
                  Loop& ll = sip_loops[static_cast<std::size_t>(i)];
                  loop.schedule_after(think(ll), [&, i] { sip_cycle(i); });
                });
              });
  };
  for (int i = 0; i < kSip; ++i) {
    sip_hosts.push_back(&client_host("sip-client-" + std::to_string(i), mmcs.sip_proxy().endpoint()));
    sips.push_back(std::make_unique<sip::SipEndpoint>(
        *sip_hosts.back(), "sip:user" + std::to_string(i) + "@iu.edu", mmcs.sip_proxy().endpoint()));
    sips.back()->register_with_proxy([&](bool ok) {
      if (!ok) out.failures.add("sip: register refused");
    });
  }

  // --- H.323 terminals: call the conference alias, then hang up. ---
  std::vector<std::unique_ptr<h323::H323Terminal>> terms;
  std::vector<Loop> h323_loops(kH323);
  std::function<void(int)> h323_cycle = [&](int i) {
    if (stopping) return;
    Loop& l = h323_loops[static_cast<std::size_t>(i)];
    op("h323");
    SimTime asked = loop.now();
    terms[static_cast<std::size_t>(i)]->call(
        "conf-" + pick(l), kH323Bandwidth, {},
        [&, i, asked](bool ok, const h323::H323Terminal::MediaTargets&) {
          done("h323", ok);
          ++h323_ops;
          joined("h323", asked);
          op("h323");
          terms[static_cast<std::size_t>(i)]->hangup([&, i](bool hang_ok) {
            done("h323", hang_ok);
            ++h323_ops;
            ++out.cycles;
            Loop& ll = h323_loops[static_cast<std::size_t>(i)];
            loop.schedule_after(think(ll), [&, i] { h323_cycle(i); });
          });
        });
  };
  for (int i = 0; i < kH323; ++i) {
    terms.push_back(std::make_unique<h323::H323Terminal>(
        client_host("h323-client-" + std::to_string(i), mmcs.gatekeeper().ras_endpoint()),
        "room-" + std::to_string(i),
                                                         mmcs.gatekeeper().ras_endpoint()));
    terms.back()->register_endpoint([&](bool ok) {
      if (!ok) out.failures.add("h323: registration refused");
    });
  }

  // --- Native XGSP clients: join, take and release the floor, leave. ---
  sim::Host& xgsp_clients = client_host("xgsp-clients", mmcs.broker_endpoint());
  std::vector<std::unique_ptr<xgsp::XgspClient>> natives;
  std::vector<Loop> xgsp_loops(kXgsp);
  std::function<void(int)> xgsp_cycle = [&](int i) {
    if (stopping) return;
    Loop& l = xgsp_loops[static_cast<std::size_t>(i)];
    xgsp::XgspClient& c = *natives[static_cast<std::size_t>(i)];
    std::string sid = pick(l);
    op("xgsp");
    SimTime asked = loop.now();
    c.join(sid, [&, i, sid, asked](const xgsp::Message& m) {
      done("xgsp", m.ok && m.type == xgsp::MsgType::kJoinAck);
      joined("xgsp", asked);
      xgsp::XgspClient& cc = *natives[static_cast<std::size_t>(i)];
      signals.sent("xgsp-floor");
      cc.request_floor(sid, [&, i, sid](const xgsp::Message& f) {
        signals.answered("xgsp-floor", f.ok);
        xgsp::XgspClient& c2 = *natives[static_cast<std::size_t>(i)];
        signals.sent("xgsp-floor");
        c2.release_floor(sid, [&, i, sid](const xgsp::Message& r) {
          signals.answered("xgsp-floor", r.ok);
          op("xgsp");
          natives[static_cast<std::size_t>(i)]->leave(sid, [&, i](const xgsp::Message& lv) {
            done("xgsp", lv.ok);
            ++out.cycles;
            Loop& ll = xgsp_loops[static_cast<std::size_t>(i)];
            loop.schedule_after(think(ll), [&, i] { xgsp_cycle(i); });
          });
        });
      });
    });
  };
  for (int i = 0; i < kXgsp; ++i) {
    natives.push_back(std::make_unique<xgsp::XgspClient>(xgsp_clients, mmcs.broker_endpoint(),
                                                         "native-" + std::to_string(i)));
    natives.back()->on_notification([&](const xgsp::Message&) { ++notifications; });
  }

  // --- SOAP portal: invite the Admire community, then take it out again. ---
  soap::SoapClient portal(client_host("portal", mmcs.web().endpoint()), mmcs.web().endpoint());
  Loop soap_loop;
  const std::string community = mmcs.admire().name();
  std::function<void()> soap_cycle = [&] {
    if (stopping) return;
    std::string sid = pick(soap_loop);
    xml::Element invite("InviteCommunity");
    invite.set_attr("session", sid);
    invite.set_attr("community", community);
    op("soap");
    SimTime asked = loop.now();
    portal.call(std::move(invite), [&, sid, asked](Result<xml::Element> r) {
      done("soap", r.ok());
      ++soap_invites;
      joined("soap", asked);
      xml::Element leave("LeaveSession");
      leave.set_attr("session", sid);
      leave.set_attr("user", "community:" + community);
      op("soap");
      portal.call(std::move(leave), [&](Result<xml::Element> lr) {
        done("soap", lr.ok());
        ++out.cycles;
        loop.schedule_after(think(soap_loop), [&] { soap_cycle(); });
      });
    });
  };

  // --- Background audio: a talker with listeners on each of the first
  // kTalkers sessions. ---
  const media::CodecInfo& g711 = media::codecs::g711u();
  struct Talker {
    std::string topic;
    std::unique_ptr<broker::BrokerClient> client;
    std::unique_ptr<rtp::RtpSession> tx;
    std::unique_ptr<media::AudioSource> source;
    MediaOracle::Pub pub = 0;
  };
  struct Listener {
    std::unique_ptr<broker::BrokerClient> client;
    MediaOracle::Rx rx = 0;
    MediaOracle::Pub pub = 0;
    media::MediaProbe probe{8000};
  };
  std::vector<std::unique_ptr<Talker>> talkers;
  std::vector<std::unique_ptr<Listener>> listeners;
  sim::Host& listen_host = mmcs.add_client_host("media-listeners");
  for (int t = 0; t < kTalkers; ++t) {
    auto tk = std::make_unique<Talker>();
    Talker* raw_t = tk.get();
    auto ssrc = static_cast<std::uint32_t>(0x3000 + t);
    tk->topic = "/xgsp/session/" + sids[static_cast<std::size_t>(t)] + "/audio/pcmu-1";
    sim::Host& host = mmcs.add_client_host("media-talker-" + std::to_string(t));
    tk->client = std::make_unique<broker::BrokerClient>(
        host, mmcs.broker_endpoint(),
        broker::BrokerClient::Config{.name = "talker-" + std::to_string(t), .udp_delivery = false});
    tk->tx = std::make_unique<rtp::RtpSession>(
        host, rtp::RtpSession::Config{.ssrc = ssrc, .payload_type = g711.payload_type,
                                      .clock_rate = g711.clock_rate});
    tk->pub = oracle.add_publisher(ssrc, g711.clock_rate);
    tk->source = std::make_unique<media::AudioSource>(
        *tk->tx, media::AudioSource::Config{.codec = g711, .seed = p.seed * 3 + 7});
    tk->tx->on_send([&, raw_t](const Payload& wire) {
      oracle.on_publish(wire, loop.now());
      if (p.tracer != nullptr) p.tracer->boundary(Layer::kClient);
      raw_t->client->publish(raw_t->topic, wire);
    });
    for (int i = 0; i < kListeners; ++i) {
      auto l = std::make_unique<Listener>();
      l->rx = oracle.add_receiver();
      l->pub = tk->pub;
      l->client = std::make_unique<broker::BrokerClient>(
          listen_host, mmcs.broker_endpoint(),
          broker::BrokerClient::Config{.name = "listener-" + std::to_string(t) + "-" + std::to_string(i)});
      l->client->subscribe(tk->topic);
      Listener* raw = l.get();
      l->client->on_event([&, raw](const broker::Event& ev) {
        if (p.tracer != nullptr) p.tracer->boundary(Layer::kClient);
        oracle.on_delivery(raw->rx, ev.payload, loop.now());
        raw->probe.on_wire(ev.payload, loop.now());
      });
      listeners.push_back(std::move(l));
    }
    talkers.push_back(std::move(tk));
  }
  oracle.set_min_delay([&](MediaOracle::Rx, MediaOracle::Pub, std::size_t bytes) {
    auto ser = duration_ns(static_cast<std::int64_t>(static_cast<double>(bytes + 42) * 8.0));
    return (kLatency + ser) * 2;
  });

  loop.run();  // registrations, handshakes and subscriptions settle
  out.setup_s = cpu_seconds() - t0;

  // Seeded rotation offsets and start phases.
  auto seed_loop = [&](Loop& l, int i) {
    l.index = static_cast<int>(rng.uniform_int(0, kSessions - 1));
    l.rng = Rng(p.seed * 104729 + static_cast<std::uint64_t>(i));
  };
  int n = 0;
  for (auto& l : sip_loops) seed_loop(l, n++);
  for (auto& l : h323_loops) seed_loop(l, n++);
  for (auto& l : xgsp_loops) seed_loop(l, n++);
  seed_loop(soap_loop, n++);

  std::uint64_t ev0 = loop.executed();
  std::uint64_t dg0 = mmcs.network().delivered();
  std::uint64_t req0 = mmcs.sessions().requests_handled();
  std::uint64_t soap0 = mmcs.web().calls();
  broker::BrokerNode& node = mmcs.brokers().broker(0);
  std::uint64_t enc0 = broker::event_encode_count();
  std::uint64_t in0 = node.events_in();
  std::uint64_t cp0 = node.copies_delivered();
  std::uint64_t hit0 = node.subscriptions().cache_hits();
  std::uint64_t miss0 = node.subscriptions().cache_misses();
  double backlog_sum = 0;
  std::uint64_t backlog_n = 0;
  if (p.tracer != nullptr) {
    sim::Network& net = mmcs.network();
    p.tracer->attach(loop);
    for (sim::NodeId h = 0; h < net.host_count(); ++h) {
      sim::Host& host = net.host(h);
      const std::string& name = host.name();
      Capture* cap = p.capture;
      if (name.starts_with("broker-")) {
        p.tracer->attach_host(
            host, Layer::kBroker, [cap](const sim::Datagram& d) { cap->broker_datagram(d); },
            [&](const sim::Datagram&) {
              backlog_sum += host.nic_backlog_delay().to_ms();
              ++backlog_n;
            });
      } else if (name == "xgsp-servers") {
        p.tracer->attach_host(host, Layer::kXgsp, [cap](const sim::Datagram& d) {
          cap->xgsp_message(d);
        });
      } else if (name == "sip-servers" || name == "hearme-community") {
        p.tracer->attach_host(host, Layer::kSip, [cap](const sim::Datagram& d) {
          cap->sip_message(d);
        });
      } else if (name == "h323-servers") {
        p.tracer->attach_host(host, Layer::kH323, [cap](const sim::Datagram& d) {
          if (cap->h323_frames.size() >= Capture::kCap || d.payload.empty()) return;
          if (d.dst.port == h323::Gatekeeper::kRasPort) {
            cap->h323_frames.emplace_back(0, d.payload);
          } else if (d.payload[0] == 3 && d.payload.size() > 1) {  // stream data segment
            int kind = d.dst.port == h323::H323Gateway::kCallSignalPort ? 1 : 2;
            cap->h323_frames.emplace_back(kind, d.payload.slice(1));
          }
        });
      } else if (name == "admire-community") {
        p.tracer->attach_host(host, Layer::kAdmire);
      } else {
        p.tracer->attach_host(host, Layer::kClient, [cap](const sim::Datagram& d) {
          cap->xgsp_message(d);
        });
      }
    }
  }
  std::uint64_t a0 = allocations();
  SimTime media_start = loop.now();
  for (auto& l : listeners) oracle.expect(l->rx, l->pub, media_start, SimTime::infinity());
  // Talkers start evenly phased across one 20 ms packet interval.
  for (int t = 0; t < kTalkers; ++t) {
    media::AudioSource* src = talkers[static_cast<std::size_t>(t)]->source.get();
    loop.schedule_after(duration_us(t * 20000 / kTalkers), [src] { src->start(); });
  }
  for (int i = 0; i < kSip; ++i) {
    loop.schedule_after(think(sip_loops[static_cast<std::size_t>(i)]), [&, i] { sip_cycle(i); });
  }
  for (int i = 0; i < kH323; ++i) {
    loop.schedule_after(think(h323_loops[static_cast<std::size_t>(i)]), [&, i] { h323_cycle(i); });
  }
  for (int i = 0; i < kXgsp; ++i) {
    loop.schedule_after(think(xgsp_loops[static_cast<std::size_t>(i)]), [&, i] { xgsp_cycle(i); });
  }
  loop.schedule_after(think(soap_loop), [&] { soap_cycle(); });
  run_measured(loop, kSpan, out, p.tracer);
  for (auto& t : talkers) t->source->stop();
  if (p.capture != nullptr) p.capture->index = node.subscriptions();
  stopping = true;
  run_measured(loop, SimDuration{0}, out, p.tracer);
  out.allocs_measured = allocations() - a0 - out.ref_allocs;
  if (p.tracer != nullptr) p.tracer->stop();

  out.failures.merge(oracle.verify());
  for (auto& l : listeners) {
    const auto& st = l->probe.stats();
    oracle.compare_probe(l->rx, l->pub, st.received(), st.delay_ms().mean(), st.jitter_ms(),
                         out.failures);
  }
  signals.finish(mmcs.sessions().sessions(), mmcs.gatekeeper().bandwidth_in_use(), out.failures);

  out.deliveries = oracle.delivered();
  out.attempted += oracle.expected();
  out.failed = oracle.missing();
  for (const auto& [path, l] : signals.ledgers()) out.failed += l.refused + (l.sent - l.answered);
  out.delays_ns = oracle.delays_ns();
  out.jitter_ms = oracle.mean_jitter_ms();
  out.datagrams = mmcs.network().delivered() - dg0;

  auto& L = out.layer;
  std::uint64_t events_in = node.events_in() - in0;
  std::uint64_t hits = node.subscriptions().cache_hits() - hit0;
  std::uint64_t misses = node.subscriptions().cache_misses() - miss0;
  L["sim.events"] = static_cast<double>(loop.executed() - ev0);
  L["sim.datagrams"] = static_cast<double>(out.datagrams);
  std::uint64_t dropped = 0;
  for (sim::NodeId h = 0; h < mmcs.network().host_count(); ++h) dropped += mmcs.network().host(h).nic_dropped();
  L["sim.nic_dropped"] = static_cast<double>(dropped);
  L["broker.events_in"] = static_cast<double>(events_in);
  L["broker.copies"] = static_cast<double>(node.copies_delivered() - cp0);
  L["broker.peer_forwards"] = 0;
  L["broker.jobs_dropped"] = static_cast<double>(node.jobs_dropped());
  L["broker.encodes_per_event"] =
      events_in == 0 ? 0 : static_cast<double>(broker::event_encode_count() - enc0) / static_cast<double>(events_in);
  L["broker.match_cache_hit_ratio"] =
      hits + misses == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
  if (p.tracer != nullptr) {
    L["sim.nic_backlog_ms"] = backlog_n == 0 ? 0 : backlog_sum / static_cast<double>(backlog_n);
  }
  L["broker.dispatch_wait_ms"] = node.dispatch().mean_wait().to_ms();
  L["xgsp.requests"] = static_cast<double>(mmcs.sessions().requests_handled() - req0);
  L["xgsp.notifications"] = static_cast<double>(notifications);
  L["sip.ops"] = static_cast<double>(sip_ops);
  L["h323.ops"] = static_cast<double>(h323_ops);
  L["soap.calls"] = static_cast<double>(mmcs.web().calls() - soap0);
  L["admire.calls"] = static_cast<double>(soap_invites);

  std::uint64_t sig = 0;
  for (std::int64_t d : out.delays_ns) sig = mix(sig, static_cast<std::uint64_t>(d));
  for (std::int64_t d : out.join_ns) sig = mix(sig, static_cast<std::uint64_t>(d));
  out.signature = mix(sig, out.signaling_ops);
  return out;
}

}  // namespace perfbench
