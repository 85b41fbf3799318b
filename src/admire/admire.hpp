// The Admire community (paper §3.1/§3.2).
//
// Admire is an autonomous collaboration community (Beihang's system
// deployed across NSFCNET/CERNET) that Global-MMCS integrates through web
// services rather than protocol gateways:
//
//   "For Admire community, XGSP Web Server invokes the web-services of
//    Admire to notify the address of the rendezvous point. And Admire
//    responds with its rendezvous point in SOAP reply. After that, both
//    sides will create RTP agents on this rendezvous."
//
// This module implements that whole community: the SOAP collaboration
// service (driven through a WSDL-CI descriptor), the rendezvous RTP
// agents bridging to the Global-MMCS broker topics, and Admire's internal
// distribution, which supports "both unicast and multicast": terminals
// send unicast RTP to the rendezvous and receive on a community multicast
// group.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/client.hpp"
#include "soap/soap.hpp"
#include "transport/datagram_socket.hpp"
#include "xgsp/session.hpp"
#include "xgsp/wsdl_ci.hpp"

namespace gmmcs::admire {

class AdmireTerminal;

class AdmireCommunity {
 public:
  static constexpr std::uint16_t kSoapPort = 8088;

  /// Runs the community's collaboration server on `host`, bridging to the
  /// Global-MMCS broker at `broker_stream`.
  AdmireCommunity(sim::Host& host, sim::Endpoint broker_stream,
                  std::uint16_t soap_port = kSoapPort, std::string name = "admire-beihang");

  /// WSDL-CI descriptor for registration in the Global-MMCS directory.
  [[nodiscard]] xgsp::WsdlCi descriptor() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Endpoint soap_endpoint() const { return soap_.endpoint(); }

  /// A rendezvous bridge for one session media stream.
  struct Rendezvous {
    std::string kind;
    sim::Endpoint ingress;        // terminals send RTP here (unicast)
    sim::GroupId downlink = 0;    // terminals receive on this group
  };
  /// Bridges established per session id.
  [[nodiscard]] const std::vector<Rendezvous>* rendezvous_for(const std::string& session_id) const;
  [[nodiscard]] std::size_t sessions_bridged() const { return bridges_.size(); }
  [[nodiscard]] std::uint64_t packets_uplinked() const { return uplinked_; }
  [[nodiscard]] std::uint64_t packets_downlinked() const { return downlinked_; }

  /// Community-side terminal management (terminals live on their own
  /// hosts inside the community network).
  std::unique_ptr<AdmireTerminal> make_terminal(sim::Host& host, std::string user);

 private:
  friend class AdmireTerminal;

  struct StreamBridge {
    std::string kind;
    std::string topic;
    std::unique_ptr<transport::DatagramSocket> ingress;  // from terminals
    sim::GroupId downlink = 0;
    std::unique_ptr<broker::BrokerClient> uplink;        // to/from gmmcs broker
  };
  struct SessionBridge {
    std::vector<std::unique_ptr<StreamBridge>> streams;
    std::vector<Rendezvous> rendezvous;
  };

  Result<xml::Element> establish(const xml::Element& request);
  Result<xml::Element> membership(const xml::Element& request);
  Result<xml::Element> control(const xml::Element& request);
  SessionBridge& bridge_session(const xgsp::Session& session);

  sim::Host* host_;
  sim::Endpoint broker_;
  std::string name_;
  soap::SoapServer soap_;
  std::map<std::string, SessionBridge> bridges_;  // by session id
  std::vector<std::string> community_members_;
  std::uint64_t uplinked_ = 0;
  std::uint64_t downlinked_ = 0;
};

/// A terminal inside the Admire community (an "Admire client" — also a
/// stand-in for Access Grid MBONE tools, which share the multicast model).
class AdmireTerminal {
 public:
  AdmireTerminal(sim::Host& host, std::string user, AdmireCommunity& community);

  /// Attaches to a session's rendezvous: joins the downlink multicast
  /// group and learns the unicast ingress. Returns false if the community
  /// has no bridge for the session.
  bool attach(const std::string& session_id);
  /// Sends one RTP packet (wire bytes) into each attached stream of the
  /// given kind.
  void send_media(const std::string& kind, Payload rtp_wire);
  void on_media(std::function<void(const sim::Datagram&)> handler);

  [[nodiscard]] std::uint64_t packets_received() const { return received_; }
  [[nodiscard]] const std::string& user() const { return user_; }

 private:
  sim::Host* host_;
  std::string user_;
  AdmireCommunity* community_;
  transport::DatagramSocket socket_;
  std::map<std::string, sim::Endpoint> ingress_by_kind_;
  std::uint64_t received_ = 0;
  std::function<void(const sim::Datagram&)> handler_;
};

}  // namespace gmmcs::admire
