// Differentiable tensor operations.
//
// Every function builds one node on the autograd tape when any operand
// requires gradients; otherwise it computes the value only. Shapes are
// validated with WIDEN_CHECK (shape errors are programmer errors).
//
// Broadcasting is intentionally narrow: Add/Mul accept either equal shapes or
// a [1, n] row vector against an [m, n] matrix — the only patterns the models
// need — so silent shape bugs cannot hide behind NumPy-style broadcasting.

#ifndef WIDEN_TENSOR_OPS_H_
#define WIDEN_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/random.h"

namespace widen::tensor {

// ---- Linear algebra ------------------------------------------------------

/// Matrix product: [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Matrix transpose: [m,n] -> [n,m].
Tensor Transpose(const Tensor& a);

// ---- Elementwise arithmetic ----------------------------------------------

/// a + b. Shapes must match, or b may be [1,n] broadcast over a's [m,n] rows.
Tensor Add(const Tensor& a, const Tensor& b);

/// a - b (same shape rules as Add).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Hadamard product (same shape rules as Add).
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * c for scalar constant c.
Tensor Scale(const Tensor& a, float c);

/// a + c for scalar constant c.
Tensor AddScalar(const Tensor& a, float c);

/// Elementwise max(a, b); gradient flows to the selected operand (ties -> a).
Tensor Maximum(const Tensor& a, const Tensor& b);

// ---- Nonlinearities --------------------------------------------------------

Tensor Relu(const Tensor& a);
/// max(x, slope * x); GAT's attention nonlinearity.
Tensor LeakyRelu(const Tensor& a, float slope = 0.2f);
/// x >= 0 ? x : alpha * (exp(x) - 1).
Tensor Elu(const Tensor& a, float alpha = 1.0f);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs are clamped below at 1e-12 for stability.
Tensor Log(const Tensor& a);

// ---- Softmax / losses ------------------------------------------------------

/// Row-wise numerically stable softmax of an [m,n] matrix.
Tensor SoftmaxRows(const Tensor& a);

/// Fused SoftmaxRows(a + mask) for a constant additive mask (e.g.
/// CausalAttentionMask). Identical bits to the two-op composite without
/// materializing the masked scores; no gradient flows to the mask.
Tensor MaskedSoftmaxRows(const Tensor& a, const Tensor& mask);

/// Ragged scaled dot-product attention over row segments (DESIGN.md §3):
/// segment s owns key/value rows [offsets[s], offsets[s+1]) of `k` and `v`.
/// `offsets` starts at 0, ends at k.rows() and every segment has a row.
///
///   causal = false: one query per segment. q is [S, d] and row s of the
///     [S, dv] result is softmax(scale * q_s K_s^T) V_s.
///   causal = true: every row queries its own segment. q is [k.rows(), d];
///     local row i attends to local keys j >= i (CausalAttentionMask's open
///     upper triangle), giving a [k.rows(), dv] result.
///
/// The forward is bitwise the per-segment composition
/// MatMul(SoftmaxRows(Scale(MatMul(Q_s, Transpose(K_s)), scale)), V_s),
/// with MaskedSoftmaxRows(·, CausalAttentionMask(L)) when causal: each row
/// runs the same kernels on the same operands, and a causal row's softmax
/// skips its masked prefix, which only ever adds exact zeros. Non-causal
/// calls may pass `weights` to receive the attention weights, one per key
/// row in row order.
Tensor SegmentAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                        const std::vector<int64_t>& offsets, bool causal,
                        float scale, std::vector<float>* weights = nullptr);

/// Mean cross-entropy of logits [m,c] against integer labels (size m).
/// Optional per-sample weights (e.g. 0/1 label masks); mean is taken over the
/// total weight. Returns a scalar.
Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int32_t>& labels,
                           const std::vector<float>* sample_weights = nullptr);

/// Sum of squared entries (for L2 regularization). Returns a scalar.
Tensor SumSquares(const Tensor& a);

// ---- Shape surgery ---------------------------------------------------------

/// Vertically stacks matrices with equal column counts.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Horizontally concatenates matrices with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Rows [start, start+count) of a as a new [count, n] tensor.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t count);

/// Columns [start, start+count) of a as a new [m, count] tensor.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t count);

/// a * s for a single-element differentiable scalar tensor s (GTN's soft
/// edge-type selection weights flow gradients through this).
Tensor ScaleBy(const Tensor& a, const Tensor& scalar);

/// Selects rows of a by index (duplicates allowed); the embedding-lookup
/// primitive. Backward scatter-adds into a.
Tensor GatherRows(const Tensor& a, const std::vector<int32_t>& indices);

// ---- Reductions -------------------------------------------------------------

/// Column sums: [m,n] -> [1,n].
Tensor SumRows(const Tensor& a);
/// Column means: [m,n] -> [1,n].
Tensor MeanRows(const Tensor& a);
/// Sum of all entries -> scalar.
Tensor SumAll(const Tensor& a);
/// Mean of all entries -> scalar.
Tensor MeanAll(const Tensor& a);

// ---- Normalization / regularization -----------------------------------------

/// Divides each row by its L2 norm (clamped at 1e-12). Paper Eq. (7).
Tensor RowL2Normalize(const Tensor& a);

/// Inverted dropout. Identity when !training or p == 0.
Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training);

// ---- Non-differentiable helpers ---------------------------------------------

/// Index of the max entry in each row (prediction extraction).
std::vector<int32_t> ArgMaxRows(const Tensor& a);

/// A [rows, rows] additive attention mask with 0 where row <= col and
/// `fill` elsewhere (paper Eq. (6); fill defaults to -1e9 standing in for
/// -inf). Not differentiable.
Tensor CausalAttentionMask(int64_t rows, float fill = -1e9f);

}  // namespace widen::tensor

#endif  // WIDEN_TENSOR_OPS_H_
