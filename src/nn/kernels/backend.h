#ifndef FIELDSWAP_NN_KERNELS_BACKEND_H_
#define FIELDSWAP_NN_KERNELS_BACKEND_H_

#include <cstdint>
#include <string>

/// Backend-internal kernel dispatch table. Only src/nn may include
/// nn/kernels/ headers (enforced by tools/layers.txt); everything else goes
/// through the Matrix/ops entry points or the nn/kernels.h control surface.
///
/// Contract shared by every backend implementation:
///   - Kernels never allocate, never touch globals, and never spawn
///     threads; given the same inputs they are bit-deterministic, so
///     outputs are bit-identical at any FIELDSWAP_THREADS *within* a
///     backend (threading happens above, at document granularity).
///   - Accumulating kernels require a caller-prepared output buffer; the
///     overwrite/accumulate choice is explicit in the signature, never
///     implicit in buffer state.
///   - Different backends may round differently (FMA, vectorized
///     reductions); scalar is the reference and SIMD backends must stay
///     within the pinned ulp bounds of tests/kernels_test.cc.

namespace fieldswap {
namespace nn {

/// Function table of one kernel backend. All matrices are dense row-major.
struct Kernels {
  const char* name;

  /// C[m,n] = A[m,k] * B[k,n] (accumulate=false overwrites C) or
  /// C += A * B (accumulate=true).
  void (*gemm)(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate);
  /// C[m,n] += A[k,m]^T * B[k,n].
  void (*gemm_trans_a)(const float* a, const float* b, float* c, int k, int m,
                       int n);
  /// C[m,n] += A[m,k] * B[n,k]^T.
  void (*gemm_trans_b)(const float* a, const float* b, float* c, int m, int k,
                       int n);
  /// Dot product of two length-n spans.
  float (*dot)(const float* a, const float* b, int n);
  /// y[n] += s * x[n].
  void (*axpy)(float s, const float* x, float* y, int n);

  /// Fused row-wise LayerNorm forward:
  ///   out[r,c] = (x[r,c] - mean_r) * inv_std_r * gain[c] + bias[c].
  /// `normed` ([rows,d]) and `inv_std` ([rows]) are saved for backward;
  /// either may be null when the caller only needs the output.
  void (*layer_norm)(const float* x, const float* gain, const float* bias,
                     int rows, int d, float epsilon, float* out, float* normed,
                     float* inv_std);

  /// Fused attention for one query row: scaled dot-product scores of `qrow`
  /// against the `count` rows of `k` listed in `idx`, softmax over them
  /// (written to `weights`), then out[d] = sum_j weights[j] * v[idx[j]].
  /// `out` is overwritten.
  void (*attention_row)(const float* qrow, const float* k, const float* v,
                        const int* idx, int count, int d, float inv_sqrt_d,
                        float* weights, float* out);

  /// Symmetric int8 quantization: out[i] = round(x[i] * inv_scale) clamped
  /// to [-127, 127]. Round-to-nearest-even in every backend.
  void (*quantize_i8)(const float* x, int n, float inv_scale, int8_t* out);

  /// Int8 GEMM against a pre-transposed weight: C[m,n] = A[m,k] * Bt[n,k]^T
  /// with int32 accumulation. Callers dequantize with scale_a * scale_b.
  void (*gemm_i8)(const int8_t* a, const int8_t* bt, int32_t* c, int m, int k,
                  int n);
};

/// The scalar reference backend (always available).
const Kernels& ScalarKernels();

/// AVX2+FMA backend, or null when not compiled in or not supported by the
/// running CPU.
const Kernels* Avx2Kernels();

/// Maps a backend name to its table, or null when the name is unknown or
/// the backend is unavailable on this build/CPU. ""/"auto" resolve to the
/// best available backend (never null).
const Kernels* ResolveBackendName(const std::string& name);

/// Replaces the active backend (nn/kernels.h SetKernelBackend plumbing).
void SetActiveKernels(const Kernels* kernels);

/// The active backend: resolved once from FIELDSWAP_KERNEL_BACKEND
/// ("scalar", "avx2", or "auto"/unset = best available), overridable
/// via nn/kernels.h SetKernelBackend. An env value naming an unavailable
/// backend aborts with an actionable message rather than silently falling
/// back — a serving fleet that thinks it runs AVX2 must not quietly run
/// scalar.
const Kernels& ActiveKernels();

}  // namespace nn
}  // namespace fieldswap

#endif  // FIELDSWAP_NN_KERNELS_BACKEND_H_
