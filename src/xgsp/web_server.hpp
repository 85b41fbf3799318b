// XGSP Web Server (paper §3.2): the SOAP facade of Global-MMCS.
//
// "Through SOAP connection, the XGSP Web Server can invoke web-services
// provided by other communities, such as Admire and SIP." End users (web
// portals, meeting calendars) call CreateSession / JoinSession / ... here;
// InviteCommunity pulls a community's WSDL-CI descriptor from the
// directory, generates a CollaborationProxy, and drives the third-party
// collaboration server's establish operation — the paper's example of
// scheduling a third-party MCU into a session.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "soap/soap.hpp"
#include "xgsp/directory.hpp"
#include "xgsp/session_server.hpp"
#include "xgsp/wsdl_ci.hpp"

namespace gmmcs::xgsp {

class WebServer {
 public:
  static constexpr std::uint16_t kDefaultPort = 8080;

  /// Runs on `host`, fronts `sessions`, resolves communities in `directory`.
  WebServer(sim::Host& host, SessionServer& sessions, Directory& directory,
            std::uint16_t port = kDefaultPort);

  [[nodiscard]] sim::Endpoint endpoint() const { return soap_.endpoint(); }
  [[nodiscard]] std::uint64_t calls() const { return soap_.calls(); }

 private:
  Result<xml::Element> create_session(const xml::Element& req);
  Result<xml::Element> join_session(const xml::Element& req);
  Result<xml::Element> leave_session(const xml::Element& req);
  Result<xml::Element> end_session(const xml::Element& req);
  Result<xml::Element> list_sessions(const xml::Element& req);
  Result<xml::Element> invite_community(const xml::Element& req);

  sim::Host* host_;
  SessionServer* sessions_;
  Directory* directory_;
  soap::SoapServer soap_;
  /// Interface components generated per community (keyed by name).
  std::map<std::string, std::unique_ptr<CollaborationProxy>> proxies_;
};

}  // namespace gmmcs::xgsp
