// A broker frame decoded and dropped on the floor: the malformed-input
// error it may carry is never seen. Result is [[nodiscard]] at the class,
// so -Werror=unused-result rejects the bare call.
#include "broker/event.hpp"

namespace gmmcs::broker {

bool handle(const Payload& data) {
#ifdef GMMCS_COMPILE_FAIL
  decode(data);
  return true;
#else
  auto frame = decode(data);
  if (!frame.ok()) return false;
  return frame.value().type == MessageType::kEvent;
#endif
}

}  // namespace gmmcs::broker
