// AVX2+FMA kernel table. This translation unit (alone) is compiled with
// -mavx2 -mfma -ffp-contract=off: fused multiply-adds appear ONLY where an
// explicit _mm256_fmadd intrinsic is written, so the lanewise kernels keep
// plain IEEE mul+add semantics and stay bitwise-identical to the scalar
// table (DESIGN.md §13). Reduction kernels fix their lane-striped partial
// order as a function of n only, preserving thread-count determinism within
// this ISA.
//
// All loads/stores are unaligned-tolerant (loadu/storeu): tensor buffers are
// 64-byte aligned at the head, but kernels also run on interior row
// pointers whose offset is not a multiple of the vector width.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd/simd.h"

namespace widen::tensor::simd {
namespace {

// Horizontal sum with a fixed tree: (lo+hi) pairwise within 128 bits.
inline float HSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

inline double HSumD(__m256d v) {
  __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

void MatMulRow(const float* arow, const float* b, float* orow, int64_t k,
               int64_t n) {
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 a0 = _mm256_loadu_ps(orow + j);
    __m256 a1 = _mm256_loadu_ps(orow + j + 8);
    __m256 a2 = _mm256_loadu_ps(orow + j + 16);
    __m256 a3 = _mm256_loadu_ps(orow + j + 24);
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 av = _mm256_broadcast_ss(arow + kk);
      const float* brow = b + kk * n + j;
      a0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), a0);
      a1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), a1);
      a2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), a2);
      a3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24), a3);
    }
    _mm256_storeu_ps(orow + j, a0);
    _mm256_storeu_ps(orow + j + 8, a1);
    _mm256_storeu_ps(orow + j + 16, a2);
    _mm256_storeu_ps(orow + j + 24, a3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 a0 = _mm256_loadu_ps(orow + j);
    for (int64_t kk = 0; kk < k; ++kk) {
      a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + kk),
                           _mm256_loadu_ps(b + kk * n + j), a0);
    }
    _mm256_storeu_ps(orow + j, a0);
  }
  for (; j < n; ++j) {
    float acc = orow[j];
    for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * n + j];
    orow[j] = acc;
  }
}

float Dot(const float* a, const float* b, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 8),
                           _mm256_loadu_ps(b + j + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 16),
                           _mm256_loadu_ps(b + j + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 24),
                           _mm256_loadu_ps(b + j + 24), acc3);
  }
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
  }
  float r = HSum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                               _mm256_add_ps(acc2, acc3)));
  for (; j < n; ++j) r += a[j] * b[j];
  return r;
}

void Axpy(float a, const float* x, float* y, int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + j),
                               _mm256_loadu_ps(y + j)));
  }
  for (; j < n; ++j) y[j] += a * x[j];
}

// ---- Row-blocked MatMul kernels ----------------------------------------
// Each reproduces the composition of MatMulRow / Dot / Axpy above
// (tensor/simd/compose.h) bitwise: blocking only shares loads between
// output elements, and every element keeps its own chain — FMA in the
// 8-wide column blocks, plain mul+add (this TU has -ffp-contract=off) in the
// n % 8 tail, terms ascending.

// Lanes [0, count) of a maskload/maskstore, count in [1, 7].
inline __m256i TailMask(int64_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// R rows of MatMulRow: every B load feeds R rows.
template <int R>
void MatMulRowBlock(const float* a, const float* b, float* o, int64_t k,
                    int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc[R][2];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_loadu_ps(o + r * n + j);
      acc[r][1] = _mm256_loadu_ps(o + r * n + j + 8);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(b + kk * n + j);
      const __m256 b1 = _mm256_loadu_ps(b + kk * n + j + 8);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + r * k + kk);
        acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(o + r * n + j, acc[r][0]);
      _mm256_storeu_ps(o + r * n + j + 8, acc[r][1]);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) acc[r] = _mm256_loadu_ps(o + r * n + j);
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(b + kk * n + j);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * k + kk), b0,
                                 acc[r]);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) _mm256_storeu_ps(o + r * n + j, acc[r]);
  }
  if (j < n) {
    // The n % 8 tail columns, one lane each: a separate multiply and add
    // per term is MatMulRow's scalar chain, so the bits match.
    const __m256i mask = TailMask(n - j);
    __m256 acc[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) acc[r] = _mm256_maskload_ps(o + r * n + j, mask);
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_maskload_ps(b + kk * n + j, mask);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        acc[r] = _mm256_add_ps(
            acc[r], _mm256_mul_ps(_mm256_broadcast_ss(a + r * k + kk), b0));
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) _mm256_maskstore_ps(o + r * n + j, mask, acc[r]);
  }
}

void MatMulRows(const float* a, const float* b, float* o, int64_t m,
                int64_t k, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) MatMulRowBlock<4>(a + i * k, b, o + i * n, k, n);
  for (; i < m; ++i) MatMulRowBlock<1>(a + i * k, b, o + i * n, k, n);
}

// out[r] += Dot(g, b + r*n, n) for r < 4 with Dot's exact tree: stripe s
// of each output sums the 32-wide chunks' lanes [8s, 8s+8) in ascending j
// (stripe 0 then takes the 8-wide blocks), partials combine as
// (s0+s1)+(s2+s3), and HSum's steps (lo+hi, then (y0+y2, y1+y3), then
// their sum) run on all four outputs at once. Stripes are computed one
// after another so only live partials occupy registers; every g load feeds
// four outputs.
void DotBlock4(const float* g, const float* b, int64_t n, float* out) {
  const int64_t chunks_end = n - n % 32;
  const int64_t blocks_end = n - n % 8;
  auto stripe = [&](int s, __m256 acc[4]) {
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) acc[r] = _mm256_setzero_ps();
    for (int64_t j = 8 * s; j < chunks_end; j += 32) {
      const __m256 gv = _mm256_loadu_ps(g + j);
#pragma GCC unroll 4
      for (int r = 0; r < 4; ++r) {
        acc[r] = _mm256_fmadd_ps(gv, _mm256_loadu_ps(b + r * n + j), acc[r]);
      }
    }
    if (s != 0) return;
    for (int64_t j = chunks_end; j < blocks_end; j += 8) {
      const __m256 gv = _mm256_loadu_ps(g + j);
#pragma GCC unroll 4
      for (int r = 0; r < 4; ++r) {
        acc[r] = _mm256_fmadd_ps(gv, _mm256_loadu_ps(b + r * n + j), acc[r]);
      }
    }
  };
  __m256 x[4], y[4], v[4];
  stripe(0, x);
  stripe(1, y);
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) v[r] = _mm256_add_ps(x[r], y[r]);
  stripe(2, x);
  stripe(3, y);
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    v[r] = _mm256_add_ps(v[r], _mm256_add_ps(x[r], y[r]));
  }
  // [lo+hi of v0 | of v1] and [of v2 | of v3].
  const __m256 t01 = _mm256_add_ps(_mm256_permute2f128_ps(v[0], v[1], 0x20),
                                   _mm256_permute2f128_ps(v[0], v[1], 0x31));
  const __m256 t23 = _mm256_add_ps(_mm256_permute2f128_ps(v[2], v[3], 0x20),
                                   _mm256_permute2f128_ps(v[2], v[3], 0x31));
  // Per half: (y0+y2, y1+y3) of the first output, then of the second.
  const __m256 u = _mm256_add_ps(_mm256_shuffle_ps(t01, t23, 0x44),
                                 _mm256_shuffle_ps(t01, t23, 0xEE));
  // Lane 0: v0, lane 1: v2, lane 4: v1, lane 5: v3.
  const __m256 w = _mm256_add_ps(_mm256_shuffle_ps(u, u, 0x88),
                                 _mm256_shuffle_ps(u, u, 0xDD));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, w);
  const float sums[4] = {lanes[0], lanes[4], lanes[1], lanes[5]};
  for (int r = 0; r < 4; ++r) {
    float acc = sums[r];
    for (int64_t j = blocks_end; j < n; ++j) acc += g[j] * b[r * n + j];
    out[r] += acc;
  }
}

void MatMulBwdA(const float* g, const float* b, float* da, int64_t m,
                int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* grow = g + i * n;
    float* darow = da + i * k;
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4) DotBlock4(grow, b + kk * n, n, darow + kk);
    for (; kk < k; ++kk) darow[kk] += Dot(grow, b + kk * n, n);
  }
}

// One dB row's columns [0, 8V) held in V registers across the whole i
// loop; Axpy's skip of zero A entries is kept per (i, kk).
template <int V>
void AxpyColumnBlock(const float* acol, int64_t lda, const float* g,
                     float* dbrow, int64_t m, int64_t n) {
  __m256 acc[V];
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) acc[v] = _mm256_loadu_ps(dbrow + 8 * v);
  for (int64_t i = 0; i < m; ++i) {
    const float av = acol[i * lda];
    if (av == 0.0f) continue;
    const __m256 avv = _mm256_set1_ps(av);
    const float* grow = g + i * n;
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_fmadd_ps(avv, _mm256_loadu_ps(grow + 8 * v), acc[v]);
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) _mm256_storeu_ps(dbrow + 8 * v, acc[v]);
}

void MatMulBwdB(const float* a, int64_t lda, const float* g, float* db,
                int64_t m, int64_t kb, int64_t n) {
  const int64_t vec_end = n - n % 8;
  for (int64_t kk = 0; kk < kb; ++kk) {
    float* dbrow = db + kk * n;
    const float* acol = a + kk;
    int64_t j = 0;
    for (; j + 64 <= vec_end; j += 64) {
      AxpyColumnBlock<8>(acol, lda, g + j, dbrow + j, m, n);
    }
    switch ((vec_end - j) / 8) {
      case 7: AxpyColumnBlock<7>(acol, lda, g + j, dbrow + j, m, n); break;
      case 6: AxpyColumnBlock<6>(acol, lda, g + j, dbrow + j, m, n); break;
      case 5: AxpyColumnBlock<5>(acol, lda, g + j, dbrow + j, m, n); break;
      case 4: AxpyColumnBlock<4>(acol, lda, g + j, dbrow + j, m, n); break;
      case 3: AxpyColumnBlock<3>(acol, lda, g + j, dbrow + j, m, n); break;
      case 2: AxpyColumnBlock<2>(acol, lda, g + j, dbrow + j, m, n); break;
      case 1: AxpyColumnBlock<1>(acol, lda, g + j, dbrow + j, m, n); break;
      default: break;
    }
    if (vec_end < n) {
      // Axpy's scalar tail, one lane per column (separate mul and add).
      const __m256i mask = TailMask(n - vec_end);
      __m256 acc = _mm256_maskload_ps(dbrow + vec_end, mask);
      for (int64_t i = 0; i < m; ++i) {
        const float av = acol[i * lda];
        if (av == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(av),
                               _mm256_maskload_ps(g + i * n + vec_end, mask)));
      }
      _mm256_maskstore_ps(dbrow + vec_end, mask, acc);
    }
  }
}

void Add(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void Sub(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void Mul(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void ScaleK(const float* a, float c, float* o, int64_t n) {
  const __m256 cv = _mm256_set1_ps(c);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), cv));
  }
  for (; i < n; ++i) o[i] = a[i] * c;
}

void Acc(const float* g, float* d, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        d + i, _mm256_add_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) d[i] += g[i];
}

void AccScaled(const float* g, float s, float* d, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // mul then add (no FMA): bitwise-matches scalar d[i] += s * g[i].
    _mm256_storeu_ps(
        d + i, _mm256_add_ps(_mm256_loadu_ps(d + i),
                             _mm256_mul_ps(sv, _mm256_loadu_ps(g + i))));
  }
  for (; i < n; ++i) d[i] += s * g[i];
}

void MulAcc(const float* g, const float* x, float* d, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        d + i,
        _mm256_add_ps(_mm256_loadu_ps(d + i),
                      _mm256_mul_ps(_mm256_loadu_ps(g + i),
                                    _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) d[i] += g[i] * x[i];
}

void Relu(const float* x, float* o, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // VMAXPS(x, 0) == (x > 0 ? x : 0) lane-exactly, including -0 -> +0 and
    // NaN -> 0 (the instruction returns the second operand on NaN/equal).
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBwd(const float* g, const float* x, float* d, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero,
                                      _CMP_GT_OQ);
    const __m256 mult = _mm256_and_ps(mask, one);  // 1.0 where x > 0 else 0
    _mm256_storeu_ps(
        d + i, _mm256_add_ps(_mm256_loadu_ps(d + i),
                             _mm256_mul_ps(_mm256_loadu_ps(g + i), mult)));
  }
  for (; i < n; ++i) d[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
}

void LeakyRelu(const float* x, float slope, float* o, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sv = _mm256_set1_ps(slope);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 mask = _mm256_cmp_ps(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(
        o + i, _mm256_blendv_ps(_mm256_mul_ps(sv, xv), xv, mask));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : slope * x[i];
}

void LeakyReluBwd(const float* g, const float* x, float slope, float* d,
                  int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sv = _mm256_set1_ps(slope);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero,
                                      _CMP_GT_OQ);
    const __m256 mult = _mm256_blendv_ps(sv, one, mask);
    _mm256_storeu_ps(
        d + i, _mm256_add_ps(_mm256_loadu_ps(d + i),
                             _mm256_mul_ps(_mm256_loadu_ps(g + i), mult)));
  }
  for (; i < n; ++i) d[i] += g[i] * (x[i] > 0.0f ? 1.0f : slope);
}

void SoftmaxRow(const float* row, const float* mrow, float* orow, int64_t n) {
  // Max scan: vectorized (max is order-insensitive for the finite logits
  // this op is defined on, so the result equals the scalar scan).
  float max_v;
  {
    int64_t j = 0;
    if (n >= 8) {
      __m256 mv = mrow == nullptr
                      ? _mm256_loadu_ps(row)
                      : _mm256_add_ps(_mm256_loadu_ps(row),
                                      _mm256_loadu_ps(mrow));
      for (j = 8; j + 8 <= n; j += 8) {
        const __m256 z = mrow == nullptr
                             ? _mm256_loadu_ps(row + j)
                             : _mm256_add_ps(_mm256_loadu_ps(row + j),
                                             _mm256_loadu_ps(mrow + j));
        mv = _mm256_max_ps(mv, z);
      }
      __m128 s = _mm_max_ps(_mm256_castps256_ps128(mv),
                            _mm256_extractf128_ps(mv, 1));
      s = _mm_max_ps(s, _mm_movehl_ps(s, s));
      s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x1));
      max_v = _mm_cvtss_f32(s);
    } else {
      max_v = mrow == nullptr ? row[0] : row[0] + mrow[0];
      j = 1;
    }
    for (; j < n; ++j) {
      const float z = mrow == nullptr ? row[j] : row[j] + mrow[j];
      max_v = std::max(max_v, z);
    }
  }
  // exp + denominator stay scalar-ascending (libm exp; same order as the
  // scalar table, so forward results match scalar bitwise).
  float denom = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    const float z = mrow == nullptr ? row[j] : row[j] + mrow[j];
    orow[j] = std::exp(z - max_v);
    denom += orow[j];
  }
  const float inv = 1.0f / denom;
  ScaleK(orow, inv, orow, n);
}

void SoftmaxRowBwd(const float* grow, const float* yrow, float* darow,
                   int64_t n) {
  const float dot = Dot(grow, yrow, n);
  const __m256 dv = _mm256_set1_ps(dot);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 t = _mm256_sub_ps(_mm256_loadu_ps(grow + j), dv);
    _mm256_storeu_ps(
        darow + j,
        _mm256_add_ps(_mm256_loadu_ps(darow + j),
                      _mm256_mul_ps(_mm256_loadu_ps(yrow + j), t)));
  }
  for (; j < n; ++j) darow[j] += yrow[j] * (grow[j] - dot);
}

double SumSqRow(const float* row, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(row + j);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double sq = HSumD(_mm256_add_pd(acc0, acc1));
  for (; j < n; ++j) sq += static_cast<double>(row[j]) * row[j];
  return sq;
}

void L2NormBwdRow(const float* grow, const float* yrow, float dot, float inv,
                  float* darow, int64_t n) {
  const __m256 dv = _mm256_set1_ps(dot);
  const __m256 iv = _mm256_set1_ps(inv);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 t = _mm256_sub_ps(
        _mm256_loadu_ps(grow + j),
        _mm256_mul_ps(dv, _mm256_loadu_ps(yrow + j)));
    _mm256_storeu_ps(
        darow + j, _mm256_add_ps(_mm256_loadu_ps(darow + j),
                                 _mm256_mul_ps(t, iv)));
  }
  for (; j < n; ++j) darow[j] += (grow[j] - dot * yrow[j]) * inv;
}

}  // namespace

const Kernels& Avx2Kernels() {
  static const Kernels kTable = {
      Isa::kAvx2,
      MatMulRow,
      Dot,
      Axpy,
      MatMulRows,
      MatMulBwdA,
      MatMulBwdB,
      Add,
      Sub,
      Mul,
      ScaleK,
      Acc,
      AccScaled,
      MulAcc,
      Relu,
      ReluBwd,
      LeakyRelu,
      LeakyReluBwd,
      SoftmaxRow,
      SoftmaxRowBwd,
      SumSqRow,
      L2NormBwdRow,
  };
  return kTable;
}

}  // namespace widen::tensor::simd

#endif  // x86-64
