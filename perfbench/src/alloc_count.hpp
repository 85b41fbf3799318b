// Counting global allocator: every operator new in the benchmark process
// bumps one counter, so a phase's heap allocations are a difference of two
// reads. Single-threaded use; the counter is still atomic (relaxed) so a
// stray library thread cannot tear it.
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t allocations();

}  // namespace perfbench
