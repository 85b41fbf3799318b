// WSDL-CI: the WSDL Collaboration Interface (paper §2.2).
//
// "WSDL-CI is used to describe the functionalities of the particular
// collaboration server. When we try to integrate the server into
// Global-MMCS, WSDL-CI provides the WSDL information to generate the
// interface component through which Global MMCS session server can
// control this collaboration server" — including "the methods of session
// establishment, session membership and session collaboration control."
//
// Descriptor (XML, round-trippable) + CollaborationProxy, the generated
// interface component: a SOAP stub whose operation names come from the
// descriptor rather than being hard-coded, so any community that ships a
// WSDL-CI document can be driven without code changes.
#pragma once

#include <functional>
#include <string>

#include "common/result.hpp"
#include "soap/soap.hpp"
#include "xml/xml.hpp"

namespace gmmcs::xgsp {

struct WsdlCi {
  std::string service_name;  // e.g. "AdmireConferenceService"
  std::string community;     // community kind: "admire", "h323", "sip"
  sim::Endpoint endpoint;    // where the SOAP service listens
  /// Operation names, one per category the paper enumerates.
  std::string establish_op = "EstablishSession";
  std::string membership_op = "SessionMembership";
  std::string control_op = "SessionControl";

  [[nodiscard]] xml::Element to_xml() const;
  [[nodiscard]] std::string serialize() const { return to_xml().serialize(); }
  static Result<WsdlCi> from_xml(const xml::Element& e);
  static Result<WsdlCi> parse(const std::string& text);
};

/// The "interface component" generated from a WSDL-CI descriptor: typed
/// entry points that dispatch to whatever operation names the community
/// declared.
class CollaborationProxy {
 public:
  using Callback = std::function<void(Result<xml::Element>)>;

  CollaborationProxy(sim::Host& host, WsdlCi descriptor);

  /// Session establishment (args become children of the operation element).
  void establish(xml::Element args, Callback cb);
  /// Session membership changes (join/leave of Global-MMCS users).
  void membership(xml::Element args, Callback cb);
  /// Collaboration control (floor, mute, camera select, ...).
  void control(xml::Element args, Callback cb);

  [[nodiscard]] const WsdlCi& descriptor() const { return descriptor_; }

 private:
  void invoke(const std::string& op, xml::Element args, Callback cb);

  WsdlCi descriptor_;
  soap::SoapClient client_;
};

}  // namespace gmmcs::xgsp
