// HearMe community: the SIP-based Voice-over-IP system whose web services
// the paper reports building (§3.2: "We have built web-services of HearMe
// [6], a SIP based Voice-over-IP system. Similar interface can also be
// implemented based on other SIP or H.323 collaboration systems.")
//
// HearMe is an audio-conference bridge: unicast VoIP phones dial in and
// the bridge fans audio out to every other phone. Integration with
// Global-MMCS goes through the same WSDL-CI shape as Admire — establish
// returns the bridge's rendezvous, membership registers phones — but the
// community behind the interface is entirely different (audio-only,
// unicast fan-out, no multicast), which is exactly the genericity the
// WSDL-CI design claims.
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

namespace gmmcs::sip {

class HearMeService {
 public:
  static constexpr std::uint16_t kSoapPort = 8090;

  HearMeService(sim::Host& host, sim::Endpoint broker_stream,
                std::uint16_t soap_port = kSoapPort, std::string name = "hearme-voip");

  /// WSDL-CI descriptor (community kind "sip", audio-only operations).
  [[nodiscard]] xgsp::WsdlCi descriptor() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Endpoint soap_endpoint() const { return soap_.endpoint(); }

  /// The audio rendezvous for a bridged session (phones send RTP here).
  [[nodiscard]] std::optional<sim::Endpoint> rendezvous_for(const std::string& session_id) const;
  [[nodiscard]] std::size_t phones_in(const std::string& session_id) const;
  [[nodiscard]] std::uint64_t packets_mixed() const { return mixed_; }

  /// A dialed-in VoIP phone: unicast RTP both ways.
  class Phone {
   public:
    Phone(sim::Host& host, HearMeService& service, std::string number);
    /// Dials into a bridged session; returns false if not bridged.
    bool dial(const std::string& session_id);
    void hang_up();
    void send_audio(Payload rtp_wire);
    void on_audio(std::function<void(const sim::Datagram&)> handler);
    [[nodiscard]] std::uint64_t packets_received() const { return received_; }
    [[nodiscard]] const std::string& number() const { return number_; }

   private:
    HearMeService* service_;
    std::string number_;
    std::string session_id_;
    transport::DatagramSocket socket_;
    std::optional<sim::Endpoint> bridge_;
    std::uint64_t received_ = 0;
    std::function<void(const sim::Datagram&)> handler_;
  };

 private:
  friend class Phone;

  struct ConferenceBridge {
    std::string topic;
    std::unique_ptr<transport::DatagramSocket> rendezvous;  // phones dial here
    std::unique_ptr<broker::BrokerClient> uplink;           // to gmmcs topic
    std::vector<sim::Endpoint> phones;                      // unicast fan-out list
  };

  Result<xml::Element> establish(const xml::Element& request);
  Result<xml::Element> membership(const xml::Element& request);
  void fan_out(ConferenceBridge& bridge, const Payload& rtp_wire, sim::Endpoint except);

  sim::Host* host_;
  sim::Endpoint broker_;
  std::string name_;
  soap::SoapServer soap_;
  std::map<std::string, std::unique_ptr<ConferenceBridge>> bridges_;  // by session id
  std::uint64_t mixed_ = 0;
};

}  // namespace gmmcs::sip
