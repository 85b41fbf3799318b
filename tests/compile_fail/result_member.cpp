// Member and static-member functions returning Result, defined out of
// line under their qualified names: a discarded call to either is an
// error.
#include <string>

#include "common/result.hpp"

namespace gmmcs {

struct Loader {
  Result<int> load(const std::string& s) const;
  static Result<Loader> make(int depth);
  int depth = 0;
};

Result<int> Loader::load(const std::string& s) const {
  if (s.empty()) return fail<int>("empty");
  return static_cast<int>(s.size()) + depth;
}

Result<Loader> Loader::make(int depth) {
  if (depth < 0) return fail<Loader>("negative depth");
  return Loader{depth};
}

int use(const Loader& l) {
#ifdef GMMCS_COMPILE_FAIL
  l.load("x");
  Loader::make(1);
  return 0;
#else
  auto n = l.load("x");
  auto m = Loader::make(1);
  return n.ok() && m.ok() ? n.value() + m.value().depth : 0;
#endif
}

}  // namespace gmmcs
