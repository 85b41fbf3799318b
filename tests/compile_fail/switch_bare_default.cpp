// A bare `default: break;` silently eats every kind it does not name,
// including kinds added later. -Werror=switch-enum rejects it; naming the
// ignored kinds is the fix.
#include "h323/messages.hpp"

namespace gmmcs::h323 {

int on_q931(Q931Type t) {
  int progress = 0;
  switch (t) {
    case Q931Type::kConnect: progress = 2; break;
    case Q931Type::kReleaseComplete: progress = -1; break;
#ifdef GMMCS_COMPILE_FAIL
    default:
      break;
#else
    case Q931Type::kSetup:
    case Q931Type::kCallProceeding:
    case Q931Type::kAlerting:
      break;
#endif
  }
  return progress;
}

}  // namespace gmmcs::h323
