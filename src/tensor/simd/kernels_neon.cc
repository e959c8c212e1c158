// AArch64 NEON kernel table. NEON is baseline on AArch64, so no extra
// compile flags are needed; -ffp-contract=off is still applied to this TU so
// fused multiply-adds appear only where vfmaq is written explicitly and the
// lanewise kernels keep plain IEEE mul+add semantics (bitwise-identical to
// the scalar table). Kernels without a profitable NEON form (softmax,
// double-precision sum-of-squares) alias the scalar implementations via
// table inheritance.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstdint>

#include "tensor/simd/compose.h"
#include "tensor/simd/simd.h"

namespace widen::tensor::simd {
namespace {

void MatMulRow(const float* arow, const float* b, float* orow, int64_t k,
               int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    float32x4_t a0 = vld1q_f32(orow + j);
    float32x4_t a1 = vld1q_f32(orow + j + 4);
    float32x4_t a2 = vld1q_f32(orow + j + 8);
    float32x4_t a3 = vld1q_f32(orow + j + 12);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + kk * n + j;
      a0 = vfmaq_n_f32(a0, vld1q_f32(brow), av);
      a1 = vfmaq_n_f32(a1, vld1q_f32(brow + 4), av);
      a2 = vfmaq_n_f32(a2, vld1q_f32(brow + 8), av);
      a3 = vfmaq_n_f32(a3, vld1q_f32(brow + 12), av);
    }
    vst1q_f32(orow + j, a0);
    vst1q_f32(orow + j + 4, a1);
    vst1q_f32(orow + j + 8, a2);
    vst1q_f32(orow + j + 12, a3);
  }
  for (; j + 4 <= n; j += 4) {
    float32x4_t a0 = vld1q_f32(orow + j);
    for (int64_t kk = 0; kk < k; ++kk) {
      a0 = vfmaq_n_f32(a0, vld1q_f32(b + kk * n + j), arow[kk]);
    }
    vst1q_f32(orow + j, a0);
  }
  for (; j < n; ++j) {
    float acc = orow[j];
    for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * n + j];
    orow[j] = acc;
  }
}

float Dot(const float* a, const float* b, int64_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + j), vld1q_f32(b + j));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + j + 4), vld1q_f32(b + j + 4));
  }
  for (; j + 4 <= n; j += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + j), vld1q_f32(b + j));
  }
  float r = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; j < n; ++j) r += a[j] * b[j];
  return r;
}

void Axpy(float a, const float* x, float* y, int64_t n) {
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vfmaq_n_f32(vld1q_f32(y + j), vld1q_f32(x + j), a));
  }
  for (; j < n; ++j) y[j] += a * x[j];
}

void Add(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void Sub(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void Mul(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void ScaleK(const float* a, float c, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vmulq_n_f32(vld1q_f32(a + i), c));
  }
  for (; i < n; ++i) o[i] = a[i] * c;
}

void Acc(const float* g, float* d, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(d + i, vaddq_f32(vld1q_f32(d + i), vld1q_f32(g + i)));
  }
  for (; i < n; ++i) d[i] += g[i];
}

void AccScaled(const float* g, float s, float* d, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // mul then add (no vfma): bitwise-matches scalar d[i] += s * g[i].
    vst1q_f32(d + i, vaddq_f32(vld1q_f32(d + i),
                               vmulq_n_f32(vld1q_f32(g + i), s)));
  }
  for (; i < n; ++i) d[i] += s * g[i];
}

void MulAcc(const float* g, const float* x, float* d, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(d + i, vaddq_f32(vld1q_f32(d + i),
                               vmulq_f32(vld1q_f32(g + i),
                                         vld1q_f32(x + i))));
  }
  for (; i < n; ++i) d[i] += g[i] * x[i];
}

void Relu(const float* x, float* o, int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Compare+select instead of vmaxq: FMAX propagates NaN, the scalar
    // contract (x > 0 ? x : 0) maps NaN and -0 to +0.
    const float32x4_t xv = vld1q_f32(x + i);
    const uint32x4_t mask = vcgtq_f32(xv, zero);
    vst1q_f32(o + i, vbslq_f32(mask, xv, zero));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBwd(const float* g, const float* x, float* d, int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t mask = vcgtq_f32(vld1q_f32(x + i), zero);
    const float32x4_t mult = vbslq_f32(mask, one, zero);
    vst1q_f32(d + i, vaddq_f32(vld1q_f32(d + i),
                               vmulq_f32(vld1q_f32(g + i), mult)));
  }
  for (; i < n; ++i) d[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
}

void LeakyRelu(const float* x, float slope, float* o, int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t xv = vld1q_f32(x + i);
    const uint32x4_t mask = vcgtq_f32(xv, zero);
    vst1q_f32(o + i, vbslq_f32(mask, xv, vmulq_n_f32(xv, slope)));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : slope * x[i];
}

void LeakyReluBwd(const float* g, const float* x, float slope, float* d,
                  int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t sv = vdupq_n_f32(slope);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t mask = vcgtq_f32(vld1q_f32(x + i), zero);
    const float32x4_t mult = vbslq_f32(mask, one, sv);
    vst1q_f32(d + i, vaddq_f32(vld1q_f32(d + i),
                               vmulq_f32(vld1q_f32(g + i), mult)));
  }
  for (; i < n; ++i) d[i] += g[i] * (x[i] > 0.0f ? 1.0f : slope);
}

}  // namespace

const Kernels& NeonKernels() {
  static const Kernels kTable = [] {
    Kernels t = ScalarKernels();  // softmax/sumsq/l2norm stay scalar
    t.isa = Isa::kNeon;
    t.matmul_row = MatMulRow;
    t.dot = Dot;
    t.axpy = Axpy;
    t.matmul_rows = ComposedMatMulRows<MatMulRow>;
    t.matmul_bwd_a = ComposedMatMulBwdA<Dot>;
    t.matmul_bwd_b = ComposedMatMulBwdB<Axpy>;
    t.add = Add;
    t.sub = Sub;
    t.mul = Mul;
    t.scale = ScaleK;
    t.acc = Acc;
    t.acc_scaled = AccScaled;
    t.mul_acc = MulAcc;
    t.relu = Relu;
    t.relu_bwd = ReluBwd;
    t.leaky_relu = LeakyRelu;
    t.leaky_relu_bwd = LeakyReluBwd;
    return t;
  }();
  return kTable;
}

}  // namespace widen::tensor::simd

#endif  // __aarch64__
