// A counting global operator new for the benchmark binary.
//
// Every heap allocation made through operator new in this process — by the
// simulator, the TABS layers and the benchmark itself — bumps two counters.
// The benchmark differences them around a load phase to report allocations
// and allocated bytes per transaction: a host cost that repeats exactly at a
// fixed seed, unlike wall time.

#ifndef TABS_PERFBENCH_ALLOC_COUNT_H_
#define TABS_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace tabs::perfbench {

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

AllocCounts CurrentAllocs();

}  // namespace tabs::perfbench

#endif  // TABS_PERFBENCH_ALLOC_COUNT_H_
