// Runtime SIMD dispatch for the hot tensor kernels (DESIGN.md §13).
//
// The ops layer never writes intrinsics: every vectorizable inner loop calls
// through a `Kernels` table of plain function pointers selected once per
// process. Three implementations exist:
//
//   kScalar — portable C++ whose loop bodies replicate the pre-SIMD kernels
//             statement for statement, so forcing the scalar ISA reproduces
//             the seed's results bitwise;
//   kAvx2   — x86-64 AVX2+FMA, compiled in its own translation unit with
//             -mavx2 -mfma and selected only when __builtin_cpu_supports()
//             reports both features;
//   kNeon   — AArch64 NEON (always present on AArch64).
//
// Selection: the WIDEN_SIMD environment variable ("auto" default, "off" /
// "scalar", "avx2", "neon") is read on first use; ForceIsa() overrides it at
// runtime for tests and benchmarks. Forcing an unsupported ISA falls back to
// scalar with a warning.
//
// Determinism contract (extends DESIGN.md §8): every kernel remains bitwise
// deterministic across thread counts *within one ISA* — reduction order is a
// fixed function of the problem size and the active table, never of the
// schedule. Two kernel classes exist:
//
//   * Lanewise kernels (add/sub/mul/scale/acc/mul_acc/relu/leaky_relu and
//     their backwards) perform one IEEE-rounded multiply and/or add per
//     element with no cross-lane reduction and no FMA contraction, so every
//     ISA produces bitwise-identical results to scalar.
//   * Reduction/fused kernels (matmul_row, dot, axpy, softmax_row*,
//     sumsq_row, l2norm_bwd_row) fix the reduction tree per ISA (scalar:
//     strictly ascending; vector: fixed lane-striped partials combined in a
//     fixed order, FMA permitted), so results may differ ACROSS ISAs by
//     normal rounding slack. Tests pin themselves to ActiveIsa().

#ifndef WIDEN_TENSOR_SIMD_SIMD_H_
#define WIDEN_TENSOR_SIMD_SIMD_H_

#include <cstdint>

namespace widen::tensor::simd {

enum class Isa : int { kScalar = 0, kAvx2 = 1, kNeon = 2 };

const char* IsaName(Isa isa);

/// True when `isa`'s kernel table is compiled in AND the running CPU can
/// execute it. kScalar is always supported.
bool IsaSupported(Isa isa);

/// Dispatch table. All pointers are non-null in every table (unvectorized
/// entries alias the scalar implementation).
struct Kernels {
  Isa isa;

  // ---- MatMul family (per-ISA reduction order; FMA permitted) ----------
  // orow[j] += sum_k arow[kk] * b[kk*n + j]; k-terms accumulate in
  // ascending kk order per output element (thread-grid determinism).
  void (*matmul_row)(const float* arow, const float* b, float* orow,
                     int64_t k, int64_t n);
  // sum_j a[j]*b[j], fixed per-ISA reduction tree.
  float (*dot)(const float* a, const float* b, int64_t n);
  // y[j] += a * x[j] (MatMul dB inner loop; FMA permitted).
  void (*axpy)(float a, const float* x, float* y, int64_t n);

  // ---- Row-blocked MatMul kernels --------------------------------------
  // Each is bitwise equal to composing the single-row entries above in the
  // loops written here (tensor/simd/compose.h is that composition, and the
  // scalar and NEON tables use it as is); vector tables block rows to share
  // loads but keep every output element's reduction order.
  //
  // o[i*n + j] += sum_kk a[i*k + kk] * b[kk*n + j] for i < m: matmul_row
  // per row.
  void (*matmul_rows)(const float* a, const float* b, float* o, int64_t m,
                      int64_t k, int64_t n);
  // da[i*k + kk] += dot(g + i*n, b + kk*n, n) for i < m, kk < k: MatMul dA.
  void (*matmul_bwd_a)(const float* g, const float* b, float* da, int64_t m,
                       int64_t k, int64_t n);
  // For i ascending and kk < kb with av = a[i*lda + kk] != 0:
  // axpy(av, g + i*n, db + kk*n, n). MatMul dB over dB rows [0, kb); zero
  // entries of A are skipped (so -0.0 and inf/NaN rows of dC behave as in
  // the per-row loop).
  void (*matmul_bwd_b)(const float* a, int64_t lda, const float* g,
                       float* db, int64_t m, int64_t kb, int64_t n);

  // ---- Lanewise kernels (bitwise-identical to scalar on every ISA) -----
  void (*add)(const float* a, const float* b, float* o, int64_t n);
  void (*sub)(const float* a, const float* b, float* o, int64_t n);
  void (*mul)(const float* a, const float* b, float* o, int64_t n);
  void (*scale)(const float* a, float c, float* o, int64_t n);  // o = a*c
  void (*acc)(const float* g, float* d, int64_t n);             // d += g
  void (*acc_scaled)(const float* g, float s, float* d, int64_t n);
  void (*mul_acc)(const float* g, const float* x, float* d, int64_t n);
  void (*relu)(const float* x, float* o, int64_t n);
  void (*relu_bwd)(const float* g, const float* x, float* d, int64_t n);
  void (*leaky_relu)(const float* x, float slope, float* o, int64_t n);
  void (*leaky_relu_bwd)(const float* g, const float* x, float slope,
                         float* d, int64_t n);

  // ---- Row kernels (internal reduction, per-ISA order) -----------------
  // Stable masked softmax of one row (mrow nullptr = unmasked): max scan
  // and normalize are vectorized; exp and the denominator sum stay in the
  // scalar ascending order (libm exp keeps transcendental accuracy).
  void (*softmax_row)(const float* row, const float* mrow, float* orow,
                      int64_t n);
  // darow[j] += yrow[j] * (grow[j] - <grow, yrow>).
  void (*softmax_row_bwd)(const float* grow, const float* yrow, float* darow,
                          int64_t n);
  // sum_j row[j]^2 accumulated in double precision.
  double (*sumsq_row)(const float* row, int64_t n);
  // darow[j] += (grow[j] - dot * yrow[j]) * inv.
  void (*l2norm_bwd_row)(const float* grow, const float* yrow, float dot,
                         float inv, float* darow, int64_t n);
};

/// The active table. First call resolves WIDEN_SIMD + CPU features, records
/// the choice in the profiler annotations and the widen_simd_isa gauge, and
/// logs it once. The returned reference is valid for the process lifetime.
const Kernels& Active();

/// ISA of the active table.
Isa ActiveIsa();

/// Test/bench hook: swaps the active table (scalar fallback when `isa` is
/// unsupported) and returns the PREVIOUSLY active ISA so callers can restore
/// it. Not safe to call while kernels are in flight on other threads.
Isa ForceIsa(Isa isa);

// Tables (for direct comparison in tests/benches; prefer Active()).
const Kernels& ScalarKernels();
#if defined(__x86_64__) || defined(_M_X64)
const Kernels& Avx2Kernels();  // call only when IsaSupported(kAvx2)
#endif
#if defined(__aarch64__)
const Kernels& NeonKernels();
#endif

}  // namespace widen::tensor::simd

#endif  // WIDEN_TENSOR_SIMD_SIMD_H_
