// A Result-returning declaration with no attribute of its own, defined
// out of line as a header declaration and its .cpp definition would be.
// No declaration needs [[nodiscard]] (there is nothing for a fixer to
// insert): the class carries it, so dropping the call is still an error.
#include "common/result.hpp"

namespace gmmcs {

Result<int> load(int x);

Result<int> load(int x) {
  if (x < 0) return fail<int>("negative");
  return x;
}

int use() {
#ifdef GMMCS_COMPILE_FAIL
  load(1);
  return 0;
#else
  auto r = load(1);
  return r.ok() ? r.value() : 0;
#endif
}

}  // namespace gmmcs
