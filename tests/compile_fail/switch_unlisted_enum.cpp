// Every enum is covered, not only the message-kind enums: a switch over
// the delivery QoS that hides a value behind default is rejected too.
#include "broker/event.hpp"

namespace gmmcs::broker {

bool over_stream(QoS q) {
  switch (q) {
    case QoS::kReliable: return true;
#ifdef GMMCS_COMPILE_FAIL
    default: return false;
#else
    case QoS::kBestEffort: return false;
#endif
  }
  return false;
}

}  // namespace gmmcs::broker
