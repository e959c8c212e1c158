// Row-blocked MatMul kernels composed from a table's single-row kernels
// (tensor/simd/simd.h). This composition defines the result every
// row-blocked kernel must reproduce bitwise; tables without a blocked
// implementation (scalar, NEON) install it directly.

#ifndef WIDEN_TENSOR_SIMD_COMPOSE_H_
#define WIDEN_TENSOR_SIMD_COMPOSE_H_

#include <cstdint>

namespace widen::tensor::simd {

template <void (*MatMulRow)(const float*, const float*, float*, int64_t,
                            int64_t)>
void ComposedMatMulRows(const float* a, const float* b, float* o, int64_t m,
                        int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) MatMulRow(a + i * k, b, o + i * n, k, n);
}

template <float (*Dot)(const float*, const float*, int64_t)>
void ComposedMatMulBwdA(const float* g, const float* b, float* da, int64_t m,
                        int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      da[i * k + kk] += Dot(g + i * n, b + kk * n, n);
    }
  }
}

template <void (*Axpy)(float, const float*, float*, int64_t)>
void ComposedMatMulBwdB(const float* a, int64_t lda, const float* g,
                        float* db, int64_t m, int64_t kb, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < kb; ++kk) {
      const float av = a[i * lda + kk];
      if (av == 0.0f) continue;
      Axpy(av, g + i * n, db + kk * n, n);
    }
  }
}

}  // namespace widen::tensor::simd

#endif  // WIDEN_TENSOR_SIMD_COMPOSE_H_
