#ifndef FIELDSWAP_NN_KERNELS_H_
#define FIELDSWAP_NN_KERNELS_H_

#include <string>
#include <vector>

/// Public control surface of the nn kernel backend layer (src/nn/kernels/).
///
/// Every Matrix/ops entry point dispatches through one runtime-selected
/// backend: the scalar reference, or AVX2+FMA where compiled in and
/// supported by the CPU (other CPUs run the scalar reference). Selection
/// happens once, from the FIELDSWAP_KERNEL_BACKEND environment variable
/// ("scalar", "avx2"; unset or "auto" picks the best available), and can be
/// overridden programmatically here — tests pin "scalar" for golden
/// reproducibility, benches sweep every available backend.
///
/// Determinism contract: outputs are bit-identical across thread counts
/// and batch sizes *within* a backend. Backends may differ from each other
/// by a few ulps (FMA and vectorized reductions round differently); the
/// bounds are pinned by tests/kernels_test.cc.

namespace fieldswap {
namespace nn {

/// Name of the active backend ("scalar", "avx2"). Resolves the
/// backend on first use.
std::string KernelBackendName();

/// Switches the active backend. Accepts a backend name or ""/"auto" for
/// auto-detection. Returns false (and leaves the backend unchanged) when
/// the named backend is unavailable on this build/CPU. Not safe to call
/// concurrently with in-flight model work; switch between workloads only.
bool SetKernelBackend(const std::string& name);

/// Backends usable in this process, best first ("avx2", "scalar" on an
/// x86-64 AVX2 host; always contains at least "scalar").
std::vector<std::string> AvailableKernelBackends();

}  // namespace nn
}  // namespace fieldswap

#endif  // FIELDSWAP_NN_KERNELS_H_
