// The WIDEN encoder as free functions over GraphView (§3, Eq. 1-7).
//
// This is the single encode path shared by training (core/widen_model.cc)
// and serving (serve/inference_session.cc). Sharing it is not a style
// choice: the serving acceptance bar is BITWISE equality with
// WidenModel::EmbedNodes, and the straight-through representation lookup
// (projected + (cached − projected)) is not bitwise-equal to the cached row
// itself, so any reimplementation would drift. Both callers parameterize the
// same functions with an EncoderParams bundle, a GraphView backing, and a
// RepSource for stored multi-hop representations.

#ifndef WIDEN_CORE_ENCODER_H_
#define WIDEN_CORE_ENCODER_H_

#include <array>
#include <memory>
#include <vector>

#include "core/message_pack.h"
#include "core/widen_config.h"
#include "graph/graph_view.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/status.h"

namespace widen::core {

/// Shape information needed to build (or validate) a parameter set.
struct EncoderDims {
  int64_t feature_dim = 0;   // d0
  int32_t num_edge_types = 0;
  int32_t num_node_types = 0;
  int64_t embedding_dim = 0;  // d
  int32_t num_classes = 0;    // c
};

/// The full WIDEN parameter set, in the canonical checkpoint order (see
/// All()). Movable, not copyable (EdgeEmbeddings is held by pointer).
struct EncoderParams {
  tensor::Tensor g_node;                           // [d0, d]
  std::unique_ptr<EdgeEmbeddings> edges;           // G_edge + G_selfloop
  tensor::Tensor wq_wide, wk_wide, wv_wide;        // Eq. (3)
  tensor::Tensor wq_deep, wk_deep, wv_deep;        // Eq. (4)
  tensor::Tensor wq_deep2, wk_deep2, wv_deep2;     // Eq. (5)
  tensor::Tensor fuse_w, fuse_b;                   // Eq. (7)
  tensor::Tensor classifier;                       // C of Eq. (10)

  /// Differentiable parameters drawn from `rng` in the fixed order that
  /// training checkpoints depend on (G_node, edge tables, the nine attention
  /// matrices, fuse, classifier).
  static EncoderParams CreateInitialized(const EncoderDims& dims, Rng& rng);

  /// Rebuilds a parameter set from `All()`-ordered tensors (checkpoint
  /// loading without a model). Tensors keep their gradient-free state, so
  /// the result is a frozen serving parameter set. Fails on wrong count or
  /// mutually inconsistent shapes.
  static StatusOr<EncoderParams> FromTensors(
      std::vector<tensor::Tensor> tensors);

  /// Canonical labels, aligned with All(): checkpoint record i is named
  /// "p{i}:{CanonicalLabels()[i]}".
  static const std::array<const char*, 15>& CanonicalLabels();

  /// All 15 parameter tensors in canonical checkpoint order.
  std::vector<tensor::Tensor> All() const;

  int64_t embedding_dim() const { return g_node.cols(); }
  int64_t feature_dim() const { return g_node.rows(); }
  int32_t num_classes() const {
    return static_cast<int32_t>(classifier.cols());
  }
};

/// Source of stored multi-hop node representations (§3's stateful
/// embeddings). Lookup returns a pointer to `embedding_dim` floats, or
/// nullptr when the node has no stored representation (fall back to the
/// fresh projection x G^node).
class RepSource {
 public:
  virtual ~RepSource() = default;
  virtual const float* Lookup(graph::NodeId v) const = 0;
};

/// Mutable per-target neighbor state, persisted across training epochs.
struct TargetState {
  graph::NodeId node = -1;
  sampling::WideNeighborSet wide;
  std::vector<DeepNeighborState> deeps;  // Φ sequences
};

/// One forward pass' artifacts for a single target.
struct EncodeResult {
  tensor::Tensor embedding;  // [1, d], on the tape when training
  std::vector<float> wide_attention;               // |W|+1 (Eq. 3)
  std::vector<std::vector<float>> deep_attention;  // Φ x (|D_φ|+1) (Eq. 5)
  std::vector<tensor::Tensor> deep_pack_values;    // Φ detached M▷ copies
};

/// Samples W(v_t) and the Φ deep walks for `node` (Definitions 2-3),
/// honoring the config's ablation switches. Deterministic given `rng`, and
/// identical across GraphView backings presenting the same neighbor order.
TargetState SampleTargetState(const graph::GraphView& graph,
                              graph::NodeId node, const WidenConfig& config,
                              Rng& rng);

/// v = x G^node for the given node ids. Differentiable through `g_node`
/// (raw features never carry gradients).
tensor::Tensor ProjectNodes(const graph::GraphView& graph,
                            const tensor::Tensor& g_node,
                            const std::vector<graph::NodeId>& nodes);

/// One full WIDEN forward for a single target (Eq. 1-7). `dropout_rng` is
/// consumed only on gradient-carrying passes (keep_artifacts set and no
/// NoGradScope active); inference draws nothing from it.
///
/// The target is encoded in a few large steps (DESIGN.md §3): one
/// projection of the target, its wide set and all Φ walks; one GEMM per
/// attention weight over the stacked packs; one SegmentAttention each for
/// Eq. 3, Eq. 4 and Eq. 5. Every output row is computed by the same kernels
/// on the same operands as a per-walk composition of the printed equations,
/// so the forward is bitwise that composition (tests/encoder_parity_test).
///
/// `projections`, if set, is ProjectNodes over every node of `graph` under
/// the current G^node ([graph.num_nodes(), d]); the target's rows are then
/// gathered from it instead of projected. The result is bitwise the same.
/// Tape-free passes only: the table carries no gradient.
EncodeResult EncodeTarget(const graph::GraphView& graph,
                          const EncoderParams& params,
                          const WidenConfig& config, TargetState& state,
                          const RepSource* reps, bool keep_artifacts,
                          Rng& dropout_rng,
                          const tensor::Tensor* projections = nullptr);

/// Seed of the per-node evaluation RNG stream used for cold nodes. Keying
/// the stream by node id makes a cold embedding independent of which other
/// nodes share the batch — the property that lets a batching server return
/// bit-identical answers regardless of request coalescing.
uint64_t EvalSeedForNode(uint64_t base_seed, graph::NodeId node);

/// Cold-node embedding: the mean of `config.eval_samples` independent
/// tape-free forwards (fresh neighborhood sample each), re-normalized.
/// Exactly WidenModel::EmbedNodes' cold path.
tensor::Tensor EncodeColdMean(const graph::GraphView& graph,
                              const EncoderParams& params,
                              const WidenConfig& config, graph::NodeId node,
                              const RepSource* reps);

}  // namespace widen::core

#endif  // WIDEN_CORE_ENCODER_H_
