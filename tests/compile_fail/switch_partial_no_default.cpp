// A switch over a message kind that forgets some kinds and has no
// default: -Werror=switch names each missing enumerator.
#include "broker/event.hpp"

namespace gmmcs::broker {

int route(MessageType t) {
  switch (t) {
    case MessageType::kHello: return 1;
    case MessageType::kEvent: return 2;
#ifndef GMMCS_COMPILE_FAIL
    case MessageType::kHelloAck:
    case MessageType::kSubscribe:
    case MessageType::kUnsubscribe:
    case MessageType::kPeerEvent:
    case MessageType::kPing:
    case MessageType::kPong:
    case MessageType::kHeartbeat:
    case MessageType::kLinkState:
      return 0;
#endif
  }
  return -1;
}

}  // namespace gmmcs::broker
