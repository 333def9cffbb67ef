#include "nn/kernels.h"

#include "nn/kernels/backend.h"

namespace fieldswap {
namespace nn {

std::string KernelBackendName() { return ActiveKernels().name; }

bool SetKernelBackend(const std::string& name) {
  const Kernels* resolved = ResolveBackendName(name);
  if (resolved == nullptr) return false;
  SetActiveKernels(resolved);
  return true;
}

std::vector<std::string> AvailableKernelBackends() {
  std::vector<std::string> names;
  if (const Kernels* avx2 = Avx2Kernels()) names.push_back(avx2->name);
  names.push_back(ScalarKernels().name);
  return names;
}

}  // namespace nn
}  // namespace fieldswap
