// A file-local helper (no header declaration anywhere) returning Result:
// discarding its result is an error like any other Result-returning call.
#include "common/result.hpp"

namespace gmmcs {
namespace {

Result<int> parse_digit(char c) {
  if (c < '0' || c > '9') return fail<int>("not a digit");
  return c - '0';
}

}  // namespace

int first_digit(const char* s) {
#ifdef GMMCS_COMPILE_FAIL
  parse_digit(s[0]);
  return 0;
#else
  auto d = parse_digit(s[0]);
  return d.ok() ? d.value() : -1;
#endif
}

}  // namespace gmmcs
