// A default that does real work (here: rejects the frame) still may not
// stand in for named kinds. The clean twin is the wire-decoder shape: it
// names every kind and keeps its default for out-of-range wire bytes,
// which no enumerator covers.
#include <cstdint>

#include "broker/event.hpp"
#include "common/result.hpp"

namespace gmmcs::broker {

Result<MessageType> classify(std::uint8_t byte) {
  switch (static_cast<MessageType>(byte)) {
    case MessageType::kHello:
    case MessageType::kEvent:
#ifndef GMMCS_COMPILE_FAIL
    case MessageType::kHelloAck:
    case MessageType::kSubscribe:
    case MessageType::kUnsubscribe:
    case MessageType::kPeerEvent:
    case MessageType::kPing:
    case MessageType::kPong:
    case MessageType::kHeartbeat:
    case MessageType::kLinkState:
#endif
      return static_cast<MessageType>(byte);
    default:
      return fail<MessageType>("unknown frame type");
  }
}

}  // namespace gmmcs::broker
