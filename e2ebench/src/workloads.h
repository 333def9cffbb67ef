#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

// The two workloads. Each sets up (several times when untraced, to
// report a median set-up time), runs its timed part, checks the program's
// outputs, and fills in end-to-end and per-layer metrics.

#include <cstddef>

#include "common.h"

namespace e2ebench {

struct RunOutput {
  MetricSet e2e;
  MetricSet layers;
  size_t attempted = 0;
  size_t failed = 0;
};

void RunPipelineEarnings(const RunContext& ctx, RunOutput& out);
void RunServeTenants(const RunContext& ctx, RunOutput& out);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
