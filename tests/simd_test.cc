// Tests for the runtime SIMD dispatch layer (tensor/simd/): ISA selection,
// the per-ISA determinism contract, lanewise scalar-equivalence, and tensor
// allocation alignment.

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/kernel_context.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace widen::tensor {
namespace {

// Restores the process-default kernel table when a test body returns.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) : previous_(simd::ForceIsa(isa)) {}
  ~ScopedIsa() { simd::ForceIsa(previous_); }

 private:
  simd::Isa previous_;
};

std::vector<simd::Isa> SupportedIsas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

std::vector<float> RandomValues(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::IsaSupported(simd::Isa::kScalar));
  EXPECT_STREQ(simd::IsaName(simd::Isa::kScalar), "scalar");
}

TEST(SimdDispatchTest, ActiveTableMatchesActiveIsa) {
  EXPECT_EQ(simd::Active().isa, simd::ActiveIsa());
}

TEST(SimdDispatchTest, ForceIsaReturnsPrevious) {
  const simd::Isa original = simd::ActiveIsa();
  const simd::Isa reported = simd::ForceIsa(simd::Isa::kScalar);
  EXPECT_EQ(reported, original);
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  EXPECT_EQ(simd::ForceIsa(original), simd::Isa::kScalar);
  EXPECT_EQ(simd::ActiveIsa(), original);
}

TEST(SimdDispatchTest, ForceUnsupportedIsaFallsBackToScalar) {
  simd::Isa missing;
#if defined(__x86_64__) || defined(_M_X64)
  missing = simd::Isa::kNeon;
#else
  missing = simd::Isa::kAvx2;
#endif
  ASSERT_FALSE(simd::IsaSupported(missing));
  const simd::Isa original = simd::ForceIsa(missing);
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  simd::ForceIsa(original);
}

// Tensor buffers are 64-byte aligned so every vector kernel can use aligned
// full-width loads on the dominant cacheline size.
TEST(SimdDispatchTest, TensorAllocationsAre64ByteAligned) {
  for (int64_t cols : {1, 3, 7, 16, 33, 257}) {
    Tensor t = Tensor::Zeros(Shape::Matrix(5, cols));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % 64, 0u)
        << "cols=" << cols;
  }
}

// Lanewise kernels promise bitwise-identical results to scalar on every ISA
// (no reduction, no FMA): verify on lengths around the vector width.
TEST(SimdKernelTest, LanewiseKernelsMatchScalarBitwise) {
  for (simd::Isa isa : SupportedIsas()) {
    if (isa == simd::Isa::kScalar) continue;
    ScopedIsa forced(isa);
    const simd::Kernels& vec = simd::Active();
    const simd::Kernels& ref = simd::ScalarKernels();
    for (int64_t n : {1, 7, 8, 9, 31, 64, 1000}) {
      const std::vector<float> a = RandomValues(n, 100 + n);
      const std::vector<float> b = RandomValues(n, 200 + n);
      std::vector<float> got(n), want(n);

      auto expect_same = [&](const char* kernel) {
        EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
            << kernel << " isa=" << simd::IsaName(isa) << " n=" << n;
      };
      vec.add(a.data(), b.data(), got.data(), n);
      ref.add(a.data(), b.data(), want.data(), n);
      expect_same("add");
      vec.sub(a.data(), b.data(), got.data(), n);
      ref.sub(a.data(), b.data(), want.data(), n);
      expect_same("sub");
      vec.mul(a.data(), b.data(), got.data(), n);
      ref.mul(a.data(), b.data(), want.data(), n);
      expect_same("mul");
      vec.scale(a.data(), 0.37f, got.data(), n);
      ref.scale(a.data(), 0.37f, want.data(), n);
      expect_same("scale");
      vec.relu(a.data(), got.data(), n);
      ref.relu(a.data(), want.data(), n);
      expect_same("relu");
      vec.leaky_relu(a.data(), 0.01f, got.data(), n);
      ref.leaky_relu(a.data(), 0.01f, want.data(), n);
      expect_same("leaky_relu");

      got = b;
      want = b;
      vec.acc(a.data(), got.data(), n);
      ref.acc(a.data(), want.data(), n);
      expect_same("acc");
      got = b;
      want = b;
      vec.acc_scaled(a.data(), -1.25f, got.data(), n);
      ref.acc_scaled(a.data(), -1.25f, want.data(), n);
      expect_same("acc_scaled");
      got = a;
      want = a;
      vec.mul_acc(a.data(), b.data(), got.data(), n);
      ref.mul_acc(a.data(), b.data(), want.data(), n);
      expect_same("mul_acc");
      got = b;
      want = b;
      vec.relu_bwd(a.data(), b.data(), got.data(), n);
      ref.relu_bwd(a.data(), b.data(), want.data(), n);
      expect_same("relu_bwd");
      got = b;
      want = b;
      vec.leaky_relu_bwd(a.data(), b.data(), 0.01f, got.data(), n);
      ref.leaky_relu_bwd(a.data(), b.data(), 0.01f, want.data(), n);
      expect_same("leaky_relu_bwd");
    }
  }
}

// Scalar relu is `x > 0 ? x : 0`, which maps NaN to 0 (the comparison is
// false). The vector kernels use compare+select rather than max() precisely
// so they reproduce that choice bitwise — vmax/maxps would pass NaN through
// on some ISAs and break scalar-equivalence.
TEST(SimdKernelTest, ReluNanHandlingMatchesScalar) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x = {-1.0f, nan, 2.0f, -0.0f, nan, 3.0f, 4.0f,
                                5.0f, 6.0f};
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> want(x.size(), -9.0f);
  simd::ScalarKernels().relu(x.data(), want.data(), n);
  EXPECT_FLOAT_EQ(want[1], 0.0f);  // NaN -> 0 is the scalar contract
  EXPECT_FLOAT_EQ(want[2], 2.0f);
  for (simd::Isa isa : SupportedIsas()) {
    ScopedIsa forced(isa);
    std::vector<float> got(x.size(), -9.0f);
    simd::Active().relu(x.data(), got.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), x.size() * sizeof(float)),
              0)
        << simd::IsaName(isa);
  }
}

// Reduction/fused kernels fix their tree per ISA, so cross-ISA agreement is
// only approximate — but within one ISA, vector vs scalar must agree to
// rounding slack and the vector result must be self-consistent.
// Inputs for the row-blocked MatMul kernels: normal values with exact
// zeros and negative zeros mixed in (the dB kernels skip zero A entries,
// and a -0.0 accumulator start must survive where the per-row loop keeps
// it).
std::vector<float> BlockedKernelValues(int64_t n, uint64_t seed) {
  std::vector<float> v = RandomValues(n, seed);
  for (int64_t i = 0; i < n; ++i) {
    if (i % 5 == 1) v[static_cast<size_t>(i)] = 0.0f;
    if (i % 7 == 3) v[static_cast<size_t>(i)] = -0.0f;
  }
  return v;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Every row-blocked kernel equals the composition of its table's own
// single-row kernels (tensor/simd/compose.h) bit for bit: m not a multiple
// of the row block, every n % 8, k = 0, zero and -0.0 inputs.
TEST(SimdKernelTest, RowBlockedKernelsMatchComposedRowKernelsBitwise) {
  for (simd::Isa isa : SupportedIsas()) {
    ScopedIsa scoped(isa);
    const simd::Kernels& kern = simd::Active();
    for (int64_t m : {1, 3, 4, 5, 9}) {
      for (int64_t k : {0, 1, 6, 21, 64}) {
        for (int64_t n : {1, 5, 8, 9, 10, 11, 12, 13, 14, 15, 21, 64, 71}) {
          SCOPED_TRACE(::testing::Message()
                       << simd::IsaName(isa) << " m=" << m << " k=" << k
                       << " n=" << n);
          const std::vector<float> a = BlockedKernelValues(m * k, 1 + n);
          const std::vector<float> b = BlockedKernelValues(k * n, 2 + m);
          const std::vector<float> g = BlockedKernelValues(m * n, 3 + k);
          const std::vector<float> bt = BlockedKernelValues(k * n, 4 + k);

          std::vector<float> want = BlockedKernelValues(m * n, 5);
          std::vector<float> got = want;
          for (int64_t i = 0; i < m; ++i) {
            kern.matmul_row(a.data() + i * k, b.data(), want.data() + i * n,
                            k, n);
          }
          kern.matmul_rows(a.data(), b.data(), got.data(), m, k, n);
          EXPECT_TRUE(BitwiseEqual(want, got)) << "matmul_rows";

          // dA: g is [m, n], bt is [k, n], da is [m, k].
          want = BlockedKernelValues(m * k, 6);
          got = want;
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t kk = 0; kk < k; ++kk) {
              want[static_cast<size_t>(i * k + kk)] +=
                  kern.dot(g.data() + i * n, bt.data() + kk * n, n);
            }
          }
          kern.matmul_bwd_a(g.data(), bt.data(), got.data(), m, k, n);
          EXPECT_TRUE(BitwiseEqual(want, got)) << "matmul_bwd_a";

          // dB over rows [1, k) of a [k, n] gradient (an interior chunk).
          if (k < 2) continue;
          want = BlockedKernelValues(k * n, 7);
          got = want;
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t kk = 1; kk < k; ++kk) {
              const float av = a[static_cast<size_t>(i * k + kk)];
              if (av == 0.0f) continue;
              kern.axpy(av, g.data() + i * n, want.data() + kk * n, n);
            }
          }
          kern.matmul_bwd_b(a.data() + 1, k, g.data(), got.data() + n, m,
                            k - 1, n);
          EXPECT_TRUE(BitwiseEqual(want, got)) << "matmul_bwd_b";
        }
      }
    }
  }
}

TEST(SimdKernelTest, ReductionKernelsMatchScalarApproximately) {
  const int64_t k = 67, n = 45;
  const std::vector<float> arow = RandomValues(k, 1);
  const std::vector<float> b = RandomValues(k * n, 2);
  for (simd::Isa isa : SupportedIsas()) {
    ScopedIsa forced(isa);
    const simd::Kernels& kern = simd::Active();
    std::vector<float> got(n, 0.0f), want(n, 0.0f);
    kern.matmul_row(arow.data(), b.data(), got.data(), k, n);
    simd::ScalarKernels().matmul_row(arow.data(), b.data(), want.data(), k, n);
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(got[j], want[j], 1e-4f)
          << simd::IsaName(isa) << " j=" << j;
    }
    const float dv = kern.dot(arow.data(), arow.data(), k);
    const float ds = simd::ScalarKernels().dot(arow.data(), arow.data(), k);
    EXPECT_NEAR(dv, ds, 1e-4f) << simd::IsaName(isa);
    const double sv = kern.sumsq_row(arow.data(), k);
    EXPECT_NEAR(sv, static_cast<double>(ds), 1e-4) << simd::IsaName(isa);
  }
}

// The §8 thread-count determinism contract survives vectorization: forward
// and backward results are bitwise-identical for 1 vs 4 threads under every
// compiled-in ISA.
TEST(SimdKernelTest, OpsBitwiseDeterministicAcrossThreadCounts) {
  for (simd::Isa isa : SupportedIsas()) {
    ScopedIsa forced(isa);
    auto run = [&](int threads) {
      KernelContext::Get().SetNumThreads(threads);
      Rng rng(11);
      Tensor a = NormalInit(Shape::Matrix(37, 29), rng, 0.5f, "a");
      Tensor b = NormalInit(Shape::Matrix(29, 23), rng, 0.5f, "b");
      Tensor y = Relu(MatMul(a, b));
      Tensor z = RowL2Normalize(SoftmaxRows(y));
      Backward(SumAll(z));
      std::vector<float> out(z.data(), z.data() + z.size());
      out.insert(out.end(), a.grad(), a.grad() + a.size());
      KernelContext::Get().SetNumThreads(1);
      return out;
    };
    const std::vector<float> t1 = run(1);
    const std::vector<float> t4 = run(4);
    ASSERT_EQ(t1.size(), t4.size());
    EXPECT_EQ(std::memcmp(t1.data(), t4.data(), t1.size() * sizeof(float)), 0)
        << "isa=" << simd::IsaName(isa);
  }
}

}  // namespace
}  // namespace widen::tensor
