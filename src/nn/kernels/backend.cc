// Backend registry and runtime selection. The active backend is resolved
// exactly once per process (or per explicit SetActiveKernels call via the
// nn/kernels.h surface) so every Matrix/ops dispatch is a single relaxed
// atomic load.

#include "nn/kernels/backend.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/logging.h"

namespace fieldswap {
namespace nn {
namespace {

std::atomic<const Kernels*> g_active{nullptr};

const Kernels* BestAvailable() {
  if (const Kernels* avx2 = Avx2Kernels()) return avx2;
  return &ScalarKernels();
}

const Kernels* ResolveFromEnv() {
  const char* env = std::getenv("FIELDSWAP_KERNEL_BACKEND");
  const std::string name = env != nullptr ? env : "";
  const Kernels* resolved = ResolveBackendName(name);
  // An explicitly requested backend that is unavailable is a deployment
  // error: a host that believes it serves with AVX2 must not silently run
  // scalar.
  FS_CHECK(resolved != nullptr)
      << "FIELDSWAP_KERNEL_BACKEND=" << name
      << " is not available in this build/CPU; set it to an available "
         "backend name or \"auto\"";
  return resolved;
}

}  // namespace

const Kernels* ResolveBackendName(const std::string& name) {
  if (name.empty() || name == "auto") return BestAvailable();
  if (name == "scalar") return &ScalarKernels();
  if (name == "avx2") return Avx2Kernels();
  return nullptr;
}

void SetActiveKernels(const Kernels* kernels) {
  g_active.store(kernels, std::memory_order_relaxed);
}

const Kernels& ActiveKernels() {
  const Kernels* active = g_active.load(std::memory_order_relaxed);
  if (active == nullptr) {
    const Kernels* resolved = ResolveFromEnv();
    // First resolver wins; concurrent initial calls resolve identically
    // anyway (same env, same CPU).
    if (!g_active.compare_exchange_strong(active, resolved,
                                          std::memory_order_relaxed)) {
      return *active;
    }
    active = resolved;
  }
  return *active;
}

}  // namespace nn
}  // namespace fieldswap
