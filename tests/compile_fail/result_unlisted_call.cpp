// Every Result-returning call is covered, not only wire parsers with a
// well-known name: a checked count read whose result is dropped leaves
// the hostile-count check it performs without effect.
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace gmmcs {

std::size_t count_items(const Bytes& data) {
  ByteReader r(data);
#ifdef GMMCS_COMPILE_FAIL
  r.read_count_u8(4);
  return r.remaining() / 4;
#else
  auto n = r.read_count_u8(4);
  return n.ok() ? n.value() : 0;
#endif
}

}  // namespace gmmcs
