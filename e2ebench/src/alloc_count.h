#ifndef E2EBENCH_ALLOC_COUNT_H_
#define E2EBENCH_ALLOC_COUNT_H_

// Heap allocation counting from outside the library: the benchmark binary
// replaces the global operator new/delete, and counts only while enabled
// (around the traced run's serial probes). Counts every thread's
// allocations, so probes keep the pool idle while counting.

#include <cstdint>

namespace e2ebench {

void SetAllocCounting(bool enabled);
uint64_t AllocCount();

}  // namespace e2ebench

#endif  // E2EBENCH_ALLOC_COUNT_H_
