// A comment on the default is no excuse: the kinds it covers must be
// named, so a kind added later cannot slip in behind it.
#include "h323/messages.hpp"

namespace gmmcs::h323 {

int on_h245(H245Type t) {
  switch (t) {
    case H245Type::kTerminalCapabilitySet: return 1;
    case H245Type::kOpenLogicalChannel: return 2;
    case H245Type::kEndSession: return 3;
#ifdef GMMCS_COMPILE_FAIL
    default:
      // Acks and rejects need no reaction here; ignoring them is deliberate.
      break;
#else
    case H245Type::kTerminalCapabilitySetAck:
    case H245Type::kMasterSlaveDetermination:
    case H245Type::kMasterSlaveAck:
    case H245Type::kOpenLogicalChannelAck:
    case H245Type::kOpenLogicalChannelReject:
    case H245Type::kCloseLogicalChannel:
    case H245Type::kCloseLogicalChannelAck:
      // Acks and rejects need no reaction here; ignoring them is deliberate.
      break;
#endif
  }
  return 0;
}

}  // namespace gmmcs::h323
