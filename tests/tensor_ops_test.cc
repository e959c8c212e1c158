#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "gradient_check.h"
#include "gtest/gtest.h"
#include "tensor/init.h"
#include "tensor/kernel_context.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace widen::tensor {
namespace {

using ::widen::testing::ExpectGradientsMatch;

Tensor Param(std::initializer_list<int64_t> shape, Rng& rng,
             const std::string& label) {
  Tensor t = NormalInit(Shape(shape), rng, 0.5f, label);
  return t;
}

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t = Tensor::FromVector(Shape::Matrix(2, 3), {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), 6.0f);
  t.set(1, 2, -1.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), -1.0f);
}

TEST(TensorTest, CopiesAliasStorage) {
  Tensor a = Tensor::Full(Shape::Matrix(1, 2), 3.0f);
  Tensor b = a;
  b.set(0, 0, 7.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 7.0f);
  EXPECT_EQ(a.id(), b.id());
  Tensor c = a.DetachedCopy();
  EXPECT_NE(c.id(), a.id());
  c.set(0, 0, 9.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 7.0f);
}

TEST(MatMulTest, Forward) {
  Tensor a = Tensor::FromVector(Shape::Matrix(2, 3), {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape::Matrix(3, 2), {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, Gradients) {
  Rng rng(1);
  Tensor a = Param({3, 4}, rng, "a");
  Tensor b = Param({4, 2}, rng, "b");
  ExpectGradientsMatch([&] { return SumAll(MatMul(a, b)); }, {a, b});
}

TEST(TransposeTest, ForwardAndGradient) {
  Rng rng(2);
  Tensor a = Param({2, 3}, rng, "a");
  Tensor at = Transpose(a);
  EXPECT_EQ(at.rows(), 3);
  EXPECT_FLOAT_EQ(at.at(2, 1), a.at(1, 2));
  ExpectGradientsMatch(
      [&] { return SumSquares(Transpose(a)); }, {a});
}

TEST(AddSubMulTest, SameShapeGradients) {
  Rng rng(3);
  Tensor a = Param({2, 3}, rng, "a");
  Tensor b = Param({2, 3}, rng, "b");
  ExpectGradientsMatch([&] { return SumSquares(Add(a, b)); }, {a, b});
  ExpectGradientsMatch([&] { return SumSquares(Sub(a, b)); }, {a, b});
  ExpectGradientsMatch([&] { return SumAll(Mul(a, b)); }, {a, b});
}

TEST(AddSubMulTest, RowBroadcastGradients) {
  Rng rng(4);
  Tensor a = Param({3, 4}, rng, "a");
  Tensor b = Param({1, 4}, rng, "b");
  ExpectGradientsMatch([&] { return SumSquares(Add(a, b)); }, {a, b});
  ExpectGradientsMatch([&] { return SumSquares(Mul(a, b)); }, {a, b});
}

TEST(MaximumTest, ForwardAndGradientRouting) {
  Tensor a = Tensor::FromVector(Shape::Matrix(1, 3), {1, 5, 2});
  Tensor b = Tensor::FromVector(Shape::Matrix(1, 3), {3, 4, 2});
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  Tensor m = Maximum(a, b);
  EXPECT_FLOAT_EQ(m.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 5.0f);
  Tensor loss = SumAll(m);
  loss.Backward();
  // Ties route to a.
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(a.grad_at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(a.grad_at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(b.grad_at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b.grad_at(0, 2), 0.0f);
}

TEST(NonlinearityTest, Gradients) {
  Rng rng(5);
  Tensor a = Param({2, 5}, rng, "a");
  ExpectGradientsMatch([&] { return SumSquares(Relu(a)); }, {a});
  ExpectGradientsMatch([&] { return SumSquares(LeakyRelu(a)); }, {a});
  ExpectGradientsMatch([&] { return SumSquares(Elu(a)); }, {a});
  ExpectGradientsMatch([&] { return SumSquares(Tanh(a)); }, {a});
  ExpectGradientsMatch([&] { return SumSquares(Sigmoid(a)); }, {a});
  ExpectGradientsMatch([&] { return SumAll(Exp(a)); }, {a});
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(6);
  Tensor a = Param({3, 4}, rng, "a");
  Tensor s = SoftmaxRows(a);
  for (int64_t i = 0; i < 3; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 4; ++j) sum += s.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, Gradients) {
  Rng rng(7);
  Tensor a = Param({2, 4}, rng, "a");
  Tensor weights = Tensor::FromVector(Shape::Matrix(2, 4),
                                      {0.3f, -1.0f, 2.0f, 0.5f,
                                       1.0f, 0.0f, -0.5f, 0.25f});
  ExpectGradientsMatch(
      [&] { return SumAll(Mul(SoftmaxRows(a), weights)); }, {a});
}

TEST(SoftmaxTest, NumericallyStableOnLargeLogits) {
  Tensor a = Tensor::FromVector(Shape::Matrix(1, 3), {1000.0f, 1001.0f, 999.0f});
  Tensor s = SoftmaxRows(a);
  EXPECT_GT(s.at(0, 1), s.at(0, 0));
  EXPECT_FALSE(std::isnan(s.at(0, 0)));
}

TEST(CrossEntropyTest, MatchesManualComputation) {
  Tensor logits =
      Tensor::FromVector(Shape::Matrix(2, 3), {1, 2, 3, 3, 2, 1});
  Tensor loss = SoftmaxCrossEntropy(logits, {2, 0});
  // Both rows have the true class at logit 3 vs {2, 1}.
  const double p = std::exp(3.0) / (std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
  EXPECT_NEAR(loss.item(), -std::log(p), 1e-5);
}

TEST(CrossEntropyTest, Gradients) {
  Rng rng(8);
  Tensor logits = Param({4, 3}, rng, "logits");
  std::vector<int32_t> labels = {0, 2, 1, 2};
  ExpectGradientsMatch(
      [&] { return SoftmaxCrossEntropy(logits, labels); }, {logits});
}

TEST(CrossEntropyTest, SampleWeightsMaskContributions) {
  Tensor logits = Tensor::FromVector(Shape::Matrix(2, 2), {5, 0, 0, 5});
  std::vector<float> weights = {1.0f, 0.0f};
  Tensor loss = SoftmaxCrossEntropy(logits, {1, 0}, &weights);
  // Only row 0 counts: true class logit 0 vs 5.
  const double p = std::exp(0.0) / (std::exp(5.0) + std::exp(0.0));
  EXPECT_NEAR(loss.item(), -std::log(p), 1e-4);
}

TEST(ConcatSliceTest, RowsRoundTrip) {
  Rng rng(9);
  Tensor a = Param({2, 3}, rng, "a");
  Tensor b = Param({3, 3}, rng, "b");
  Tensor cat = ConcatRows({a, b});
  EXPECT_EQ(cat.rows(), 5);
  EXPECT_FLOAT_EQ(cat.at(2, 1), b.at(0, 1));
  ExpectGradientsMatch(
      [&] { return SumSquares(SliceRows(ConcatRows({a, b}), 1, 3)); },
      {a, b});
}

TEST(ConcatSliceTest, ColsRoundTrip) {
  Rng rng(10);
  Tensor a = Param({2, 2}, rng, "a");
  Tensor b = Param({2, 3}, rng, "b");
  Tensor cat = ConcatCols({a, b});
  EXPECT_EQ(cat.cols(), 5);
  EXPECT_FLOAT_EQ(cat.at(1, 3), b.at(1, 1));
  ExpectGradientsMatch(
      [&] { return SumSquares(SliceCols(ConcatCols({a, b}), 1, 3)); },
      {a, b});
}

TEST(GatherRowsTest, ForwardAndScatterAddBackward) {
  Rng rng(11);
  Tensor table = Param({5, 3}, rng, "table");
  std::vector<int32_t> idx = {4, 0, 4, 2};  // duplicate index 4
  Tensor g = GatherRows(table, idx);
  EXPECT_EQ(g.rows(), 4);
  EXPECT_FLOAT_EQ(g.at(0, 1), table.at(4, 1));
  ExpectGradientsMatch(
      [&] { return SumSquares(GatherRows(table, idx)); }, {table});
}

TEST(ReductionTest, Gradients) {
  Rng rng(12);
  Tensor a = Param({3, 4}, rng, "a");
  ExpectGradientsMatch([&] { return SumSquares(SumRows(a)); }, {a});
  ExpectGradientsMatch([&] { return SumSquares(MeanRows(a)); }, {a});
  ExpectGradientsMatch([&] { return MeanAll(a); }, {a});
}

TEST(RowL2NormalizeTest, UnitNormsAndGradients) {
  Rng rng(13);
  Tensor a = Param({3, 4}, rng, "a");
  Tensor normalized = RowL2Normalize(a);
  for (int64_t i = 0; i < 3; ++i) {
    double norm = 0.0;
    for (int64_t j = 0; j < 4; ++j) {
      norm += static_cast<double>(normalized.at(i, j)) * normalized.at(i, j);
    }
    EXPECT_NEAR(norm, 1.0, 1e-5);
  }
  Tensor weights = NormalInit(Shape::Matrix(3, 4), rng, 1.0f, "w");
  weights.set_requires_grad(false);
  ExpectGradientsMatch(
      [&] { return SumAll(Mul(RowL2Normalize(a), weights)); }, {a});
}

TEST(ScaleByTest, Gradients) {
  Rng rng(14);
  Tensor a = Param({2, 3}, rng, "a");
  Tensor s = Param({1, 1}, rng, "s");
  ExpectGradientsMatch([&] { return SumSquares(ScaleBy(a, s)); }, {a, s});
}

TEST(DropoutTest, IdentityWhenNotTraining) {
  Rng rng(15);
  Tensor a = Param({2, 3}, rng, "a");
  Tensor out = Dropout(a, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(out.id(), a.id());
}

TEST(DropoutTest, ScalesKeptEntries) {
  Rng rng(16);
  Tensor a = Tensor::Full(Shape::Matrix(50, 50), 1.0f);
  Tensor out = Dropout(a, 0.5f, rng, /*training=*/true);
  int64_t kept = 0;
  for (int64_t i = 0; i < out.size(); ++i) {
    const float v = out.data()[i];
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6f);
    if (v != 0.0f) ++kept;
  }
  // ~50% kept, generous tolerance.
  EXPECT_GT(kept, 900);
  EXPECT_LT(kept, 1600);
}

TEST(ArgMaxRowsTest, PicksMaxIndex) {
  Tensor a = Tensor::FromVector(Shape::Matrix(2, 3), {1, 9, 2, 7, 3, 5});
  std::vector<int32_t> result = ArgMaxRows(a);
  EXPECT_EQ(result[0], 1);
  EXPECT_EQ(result[1], 0);
}

TEST(CausalAttentionMaskTest, UpperTriangleOpen) {
  Tensor mask = CausalAttentionMask(3);
  // row <= col -> 0 (pack receives from later positions only).
  EXPECT_FLOAT_EQ(mask.at(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(mask.at(1, 1), 0.0f);
  EXPECT_LT(mask.at(2, 0), -1e8f);
  EXPECT_LT(mask.at(1, 0), -1e8f);
}

TEST(MaskedSoftmaxRowsTest, MatchesAddThenSoftmaxBitwise) {
  Rng rng(23);
  Tensor a = NormalInit(Shape::Matrix(7, 7), rng, 1.0f, "a");
  Tensor mask = CausalAttentionMask(7);
  Tensor fused = MaskedSoftmaxRows(a, mask);
  Tensor composite = SoftmaxRows(Add(a, mask));
  ASSERT_EQ(fused.size(), composite.size());
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.data()[i], composite.data()[i]) << "entry " << i;
  }
}

TEST(MaskedSoftmaxRowsTest, Gradients) {
  Rng rng(24);
  Tensor a = Param({5, 5}, rng, "a");
  Tensor mask = CausalAttentionMask(5);
  ExpectGradientsMatch(
      [&] { return SumSquares(MaskedSoftmaxRows(a, mask)); }, {a});
}

// Ragged segments (lengths 1, 4 and 3) with d = 3 and dv = 2, both the
// one-query and the causal form, against central differences.
TEST(SegmentAttentionTest, Gradients) {
  Rng rng(25);
  const std::vector<int64_t> offsets = {0, 1, 5, 8};
  Tensor k = Param({8, 3}, rng, "k");
  Tensor v = Param({8, 2}, rng, "v");
  Tensor q_one = Param({3, 3}, rng, "q_one");
  Tensor q_rows = Param({8, 3}, rng, "q_rows");
  ExpectGradientsMatch(
      [&] {
        return SumSquares(
            SegmentAttention(q_one, k, v, offsets, /*causal=*/false, 0.7f));
      },
      {q_one, k, v});
  ExpectGradientsMatch(
      [&] {
        return SumSquares(
            SegmentAttention(q_rows, k, v, offsets, /*causal=*/true, 0.7f));
      },
      {q_rows, k, v});
}

// ---- Determinism across kernel thread counts --------------------------------
//
// The parallel kernels promise bitwise-identical forward values AND gradients
// for every WIDEN_NUM_THREADS (DESIGN.md §8). Odd, non-grain-aligned shapes
// make the chunk grid ragged on purpose.

// Runs fn at each thread count and asserts the returned float buffers are
// bit-for-bit identical across counts.
void ExpectBitwiseIdenticalAcrossThreads(
    const std::function<std::vector<float>()>& fn) {
  KernelContext::Get().SetNumThreads(1);
  const std::vector<float> baseline = fn();
  for (int threads : {2, 7}) {
    KernelContext::Get().SetNumThreads(threads);
    const std::vector<float> got = fn();
    ASSERT_EQ(got.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      // Bit compare, not EXPECT_FLOAT_EQ: the contract is exact.
      ASSERT_EQ(std::memcmp(&got[i], &baseline[i], sizeof(float)), 0)
          << "entry " << i << " differs at " << threads << " threads";
    }
  }
  KernelContext::Get().SetNumThreads(1);
}

std::vector<float> Concat(std::initializer_list<const Tensor*> tensors) {
  std::vector<float> all;
  for (const Tensor* t : tensors) {
    all.insert(all.end(), t->data(), t->data() + t->size());
  }
  return all;
}

TEST(KernelDeterminismTest, MatMulForwardAndBackward) {
  ExpectBitwiseIdenticalAcrossThreads([] {
    Rng rng(31);
    Tensor a = NormalInit(Shape::Matrix(37, 29), rng, 1.0f, "a");
    Tensor b = NormalInit(Shape::Matrix(29, 23), rng, 1.0f, "b");
    a.set_requires_grad(true);
    b.set_requires_grad(true);
    Tensor c = MatMul(a, b);
    SumSquares(c).Backward();
    Tensor ga = Tensor::FromVector(
        a.shape(), std::vector<float>(a.grad(), a.grad() + a.size()));
    Tensor gb = Tensor::FromVector(
        b.shape(), std::vector<float>(b.grad(), b.grad() + b.size()));
    return Concat({&c, &ga, &gb});
  });
}

TEST(KernelDeterminismTest, SoftmaxForwardAndBackward) {
  ExpectBitwiseIdenticalAcrossThreads([] {
    Rng rng(32);
    Tensor a = NormalInit(Shape::Matrix(53, 19), rng, 2.0f, "a");
    a.set_requires_grad(true);
    Tensor y = SoftmaxRows(a);
    SumSquares(y).Backward();
    Tensor ga = Tensor::FromVector(
        a.shape(), std::vector<float>(a.grad(), a.grad() + a.size()));
    return Concat({&y, &ga});
  });
}

TEST(KernelDeterminismTest, RowOpsAndGatherBackward) {
  ExpectBitwiseIdenticalAcrossThreads([] {
    Rng rng(33);
    Tensor table = NormalInit(Shape::Matrix(41, 17), rng, 1.0f, "table");
    table.set_requires_grad(true);
    // Duplicate indices exercise the scatter-add reduction.
    std::vector<int32_t> idx;
    for (int i = 0; i < 97; ++i) idx.push_back((i * 7) % 41);
    Tensor gathered = GatherRows(table, idx);
    Tensor normalized = RowL2Normalize(Relu(gathered));
    SumSquares(normalized).Backward();
    Tensor gt = Tensor::FromVector(
        table.shape(),
        std::vector<float>(table.grad(), table.grad() + table.size()));
    return Concat({&normalized, &gt});
  });
}

TEST(KernelDeterminismTest, CrossEntropyTrainingStep) {
  ExpectBitwiseIdenticalAcrossThreads([] {
    Rng rng(34);
    Tensor x = NormalInit(Shape::Matrix(45, 13), rng, 1.0f, "x");
    Tensor w = NormalInit(Shape::Matrix(13, 5), rng, 0.7f, "w");
    Tensor bias = NormalInit(Shape::Matrix(1, 5), rng, 0.1f, "b");
    w.set_requires_grad(true);
    bias.set_requires_grad(true);
    std::vector<int32_t> labels;
    for (int i = 0; i < 45; ++i) labels.push_back(i % 5);
    Tensor loss =
        SoftmaxCrossEntropy(Add(MatMul(x, w), bias), labels);
    loss.Backward();
    Tensor gw = Tensor::FromVector(
        w.shape(), std::vector<float>(w.grad(), w.grad() + w.size()));
    Tensor gb = Tensor::FromVector(
        bias.shape(),
        std::vector<float>(bias.grad(), bias.grad() + bias.size()));
    return Concat({&loss, &gw, &gb});
  });
}

TEST(ChainTest, TwoLayerNetworkGradients) {
  Rng rng(17);
  Tensor x = NormalInit(Shape::Matrix(4, 3), rng, 1.0f, "x");
  x.set_requires_grad(false);
  Tensor w1 = Param({3, 5}, rng, "w1");
  Tensor b1 = Param({1, 5}, rng, "b1");
  Tensor w2 = Param({5, 2}, rng, "w2");
  std::vector<int32_t> labels = {0, 1, 1, 0};
  ExpectGradientsMatch(
      [&] {
        Tensor h = Relu(Add(MatMul(x, w1), b1));
        return SoftmaxCrossEntropy(MatMul(h, w2), labels);
      },
      {w1, b1, w2});
}

}  // namespace
}  // namespace widen::tensor
