#include "common/payload.hpp"

namespace gmmcs {

namespace {
// Process-wide copy counters (see payload_copy_count()).
std::uint64_t g_payload_copies = 0;
std::uint64_t g_payload_bytes_copied = 0;
}  // namespace

Payload Payload::copy_of(std::span<const std::uint8_t> data) {
  ++g_payload_copies;
  g_payload_bytes_copied += data.size();
  return Payload(Bytes(data.begin(), data.end()));
}

Payload Payload::slice(std::size_t offset, std::size_t len) const {
  if (offset > size_) return {};
  if (len > size_ - offset) len = size_ - offset;
  return Payload(buf_, data_ + offset, len);
}

Bytes Payload::to_bytes() const {
  ++g_payload_copies;
  g_payload_bytes_copied += size_;
  return Bytes(data_, data_ + size_);
}

std::uint64_t payload_copy_count() {
  return g_payload_copies;
}

std::uint64_t payload_bytes_copied() {
  return g_payload_bytes_copied;
}

}  // namespace gmmcs
