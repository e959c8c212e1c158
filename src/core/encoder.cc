#include "core/encoder.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "obs/stage.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/random_walk.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace widen::core {
namespace {

namespace T = widen::tensor;

Status ShapeError(const char* label, const T::Tensor& got,
                  const T::Shape& want) {
  return Status::InvalidArgument(StrCat("parameter '", label, "' has shape ",
                                        got.shape().ToString(), ", expected ",
                                        want.ToString()));
}

}  // namespace

EncoderParams EncoderParams::CreateInitialized(const EncoderDims& dims,
                                               Rng& rng) {
  const int64_t d = dims.embedding_dim;
  EncoderParams p;
  p.g_node =
      T::XavierUniform(T::Shape::Matrix(dims.feature_dim, d), rng, "G_node");
  p.edges = std::make_unique<EdgeEmbeddings>(dims.num_edge_types,
                                             dims.num_node_types, d, rng);
  auto attn = [&](const char* name) {
    return T::XavierUniform(T::Shape::Matrix(d, d), rng, name);
  };
  p.wq_wide = attn("Wq_wide");
  p.wk_wide = attn("Wk_wide");
  p.wv_wide = attn("Wv_wide");
  p.wq_deep = attn("Wq_deep");
  p.wk_deep = attn("Wk_deep");
  p.wv_deep = attn("Wv_deep");
  p.wq_deep2 = attn("Wq_deep2");
  p.wk_deep2 = attn("Wk_deep2");
  p.wv_deep2 = attn("Wv_deep2");
  p.fuse_w = T::XavierUniform(T::Shape::Matrix(2 * d, d), rng, "W_fuse");
  p.fuse_b = T::ZeroParam(T::Shape::Matrix(1, d), "b_fuse");
  p.classifier =
      T::XavierUniform(T::Shape::Matrix(d, dims.num_classes), rng, "C");
  return p;
}

const std::array<const char*, 15>& EncoderParams::CanonicalLabels() {
  static const std::array<const char*, 15> kLabels = {
      "G_node",   "G_edge",   "G_selfloop", "Wq_wide",  "Wk_wide",
      "Wv_wide",  "Wq_deep",  "Wk_deep",    "Wv_deep",  "Wq_deep2",
      "Wk_deep2", "Wv_deep2", "W_fuse",     "b_fuse",   "C"};
  return kLabels;
}

StatusOr<EncoderParams> EncoderParams::FromTensors(
    std::vector<tensor::Tensor> tensors) {
  if (tensors.size() != CanonicalLabels().size()) {
    return Status::InvalidArgument(StrCat("expected ",
                                          CanonicalLabels().size(),
                                          " parameter tensors, got ",
                                          tensors.size()));
  }
  for (const T::Tensor& t : tensors) {
    if (!t.defined() || t.shape().rank() != 2) {
      return Status::InvalidArgument("parameter tensors must be matrices");
    }
  }
  const int64_t d = tensors[0].cols();  // G_node is [d0, d]
  if (d <= 0) return Status::InvalidArgument("G_node has no columns");

  EncoderParams p;
  p.g_node = tensors[0];
  if (tensors[1].cols() != d) {
    return Status::InvalidArgument("G_edge embedding dim mismatch");
  }
  if (tensors[2].cols() != d) {
    return Status::InvalidArgument("G_selfloop embedding dim mismatch");
  }
  p.edges = std::make_unique<EdgeEmbeddings>(tensors[1], tensors[2]);
  const T::Shape square = T::Shape::Matrix(d, d);
  T::Tensor* attn[] = {&p.wq_wide,  &p.wk_wide,  &p.wv_wide,
                       &p.wq_deep,  &p.wk_deep,  &p.wv_deep,
                       &p.wq_deep2, &p.wk_deep2, &p.wv_deep2};
  for (size_t i = 0; i < 9; ++i) {
    T::Tensor& t = tensors[3 + i];
    if (t.shape() != square) {
      return ShapeError(CanonicalLabels()[3 + i], t, square);
    }
    *attn[i] = t;
  }
  if (tensors[12].shape() != T::Shape::Matrix(2 * d, d)) {
    return ShapeError("W_fuse", tensors[12], T::Shape::Matrix(2 * d, d));
  }
  p.fuse_w = tensors[12];
  if (tensors[13].shape() != T::Shape::Matrix(1, d)) {
    return ShapeError("b_fuse", tensors[13], T::Shape::Matrix(1, d));
  }
  p.fuse_b = tensors[13];
  if (tensors[14].rows() != d || tensors[14].cols() <= 0) {
    return Status::InvalidArgument("classifier shape mismatch");
  }
  p.classifier = tensors[14];
  return p;
}

std::vector<tensor::Tensor> EncoderParams::All() const {
  std::vector<T::Tensor> params = {g_node};
  for (const T::Tensor& p : edges->Parameters()) params.push_back(p);
  for (const T::Tensor& p :
       {wq_wide, wk_wide, wv_wide, wq_deep, wk_deep, wv_deep, wq_deep2,
        wk_deep2, wv_deep2, fuse_w, fuse_b, classifier}) {
    params.push_back(p);
  }
  return params;
}

TargetState SampleTargetState(const graph::GraphView& graph,
                              graph::NodeId node, const WidenConfig& config,
                              Rng& rng) {
  TargetState state;
  state.node = node;
  if (!config.disable_wide) {
    state.wide = sampling::SampleWideNeighbors(graph, node,
                                               config.num_wide_neighbors, rng);
  } else {
    state.wide.target = node;
  }
  if (!config.disable_deep) {
    state.deeps.reserve(static_cast<size_t>(config.num_deep_walks));
    for (int64_t phi = 0; phi < config.num_deep_walks; ++phi) {
      state.deeps.push_back(MakeDeepState(
          sampling::SampleDeepWalk(graph, node, config.num_deep_neighbors,
                                   rng)));
    }
  }
  return state;
}

tensor::Tensor ProjectNodes(const graph::GraphView& graph,
                            const tensor::Tensor& g_node,
                            const std::vector<graph::NodeId>& nodes) {
  const int64_t d0 = graph.feature_dim();
  WIDEN_CHECK_EQ(d0, g_node.rows())
      << "feature dimension mismatch between graphs";
  T::Tensor features(
      T::Shape::Matrix(static_cast<int64_t>(nodes.size()), d0));
  float* dst = features.mutable_data();
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::memcpy(dst + static_cast<int64_t>(i) * d0,
                graph.feature_row(nodes[i]),
                static_cast<size_t>(d0) * sizeof(float));
  }
  return T::MatMul(features, g_node);
}

EncodeResult EncodeTarget(const graph::GraphView& graph,
                          const EncoderParams& params,
                          const WidenConfig& config, TargetState& state,
                          const RepSource* reps, bool keep_artifacts,
                          Rng& dropout_rng, const tensor::Tensor* projections) {
  const int64_t d = params.embedding_dim();
  const float attention_scale = 1.0f / std::sqrt(static_cast<float>(d));
  const bool wide_on = !config.disable_wide;
  const bool deep_on = !config.disable_deep;
  // Dropout only perturbs gradient-carrying (supervised) forwards; cache
  // refreshes and inference run clean. The tape itself is controlled by
  // NoGradScope at the call sites.
  const bool training = keep_artifacts && !T::NoGradScope::Active();
  EncodeResult result;

  // ---- PACK (Eq. 1-2): every pack of the target in one matrix ----
  // Row blocks: the wide block [m_t°; W] and then one block [m_t▷; D_φ]
  // per walk. Each block starts with the target's self-loop pack, so the
  // target is projected once per block; `groups` lists the neighbor rows
  // of each block, the unit the store residual is decided on.
  const int32_t num_edge_types =
      static_cast<int32_t>(params.edges->edge_table().rows());
  const int32_t num_node_types =
      static_cast<int32_t>(params.edges->self_loop_table().rows());
  const int32_t self_edge = num_edge_types + graph.node_type(state.node);
  std::vector<int32_t> rows, edge_rows;
  std::vector<std::pair<int64_t, int64_t>> groups;  // [begin, end) of rows
  std::vector<int64_t> deep_offsets = {0};  // walk blocks within the deep rows
  std::vector<float> relays;                // relay rows, appended in order
  auto add_block = [&](const std::vector<graph::NodeId>& nodes) {
    rows.push_back(state.node);
    edge_rows.push_back(self_edge);
    groups.emplace_back(static_cast<int64_t>(rows.size()),
                        static_cast<int64_t>(rows.size() + nodes.size()));
    rows.insert(rows.end(), nodes.begin(), nodes.end());
  };
  if (wide_on) {
    add_block(state.wide.nodes);
    edge_rows.insert(edge_rows.end(), state.wide.edge_types.begin(),
                     state.wide.edge_types.end());
  }
  const int64_t deep_begin = static_cast<int64_t>(rows.size());
  if (deep_on) {
    WIDEN_CHECK(!state.deeps.empty()) << "deep pass needs at least one walk";
    for (const DeepNeighborState& deep : state.deeps) {
      WIDEN_CHECK_EQ(deep.nodes.size(), deep.edges.size());
      add_block(deep.nodes);
      for (const DeepEdgeSlot& slot : deep.edges) {
        if (!slot.is_relay()) {
          edge_rows.push_back(slot.edge_type);
          continue;
        }
        WIDEN_CHECK_EQ(static_cast<int64_t>(slot.relay.size()), d);
        edge_rows.push_back(num_edge_types + num_node_types +
                            static_cast<int32_t>(relays.size() / d));
        relays.insert(relays.end(), slot.relay.begin(), slot.relay.end());
      }
      deep_offsets.push_back(static_cast<int64_t>(rows.size()) - deep_begin);
    }
  }
  const int64_t num_rows = static_cast<int64_t>(rows.size());

  T::Tensor packs, dropped;
  if (num_rows > 0) {
    obs::StageScope pack_stage(obs::Stage::kEncodePack);
    T::Tensor values;
    if (projections != nullptr) {
      WIDEN_CHECK(T::NoGradScope::Active() || !params.g_node.requires_grad())
          << "the projection table is for tape-free passes only";
      values = T::GatherRows(*projections, rows);
    } else {
      values = ProjectNodes(graph, params.g_node, rows);
    }
    // Straight-through store reads: values come from the store, gradients
    // still reach G^node through the projection. A neighbor block with a
    // stored row adds cached − projected to each stored row and +0 to the
    // rest; every other row adds −0, which leaves any float unchanged.
    if (reps != nullptr) {
      T::Tensor residual(values.shape());
      float* rp = residual.mutable_data();
      std::fill(rp, rp + residual.size(), -0.0f);
      const float* pp = values.data();
      std::vector<const float*> stored;
      bool any_cached = false;
      for (const auto& [begin, end] : groups) {
        stored.clear();
        bool group_cached = false;
        for (int64_t r = begin; r < end; ++r) {
          stored.push_back(reps->Lookup(rows[static_cast<size_t>(r)]));
          group_cached = group_cached || stored.back() != nullptr;
        }
        if (!group_cached) continue;
        any_cached = true;
        for (int64_t r = begin; r < end; ++r) {
          float* row = rp + r * d;
          const float* src = stored[static_cast<size_t>(r - begin)];
          const float* prow = pp + r * d;
          for (int64_t j = 0; j < d; ++j) {
            row[j] = src == nullptr ? 0.0f : src[j] - prow[j];
          }
        }
      }
      if (any_cached) values = T::Add(values, residual);
    }
    // One edge-row matrix: trainable rows gathered from the edge and
    // self-loop tables, relay rows (Eq. 8) copied in as constants.
    std::vector<T::Tensor> tables = {params.edges->edge_table(),
                                     params.edges->self_loop_table()};
    if (!relays.empty()) {
      const int64_t num_relays = static_cast<int64_t>(relays.size()) / d;
      tables.push_back(T::Tensor::FromVector(T::Shape::Matrix(num_relays, d),
                                             std::move(relays)));
    }
    packs = T::Mul(values, T::GatherRows(T::ConcatRows(tables), edge_rows));
    // One Bernoulli per element in row-major order: the wide block, then
    // the walks in order, exactly as per-block dropout would draw them.
    dropped = T::Dropout(packs, config.dropout, dropout_rng, training);
  }

  // ---- PASS° (Eq. 3): the target's wide pack queries its wide set ----
  T::Tensor h_wide;
  if (wide_on) {
    obs::StageScope wide_stage(obs::Stage::kEncodePassWide);
    const int64_t block = deep_begin;
    T::Tensor query = T::SliceRows(packs, 0, 1);  // m_t°, before dropout
    T::Tensor wide_packs =
        block == num_rows ? dropped : T::SliceRows(dropped, 0, block);
    h_wide = T::SegmentAttention(
        T::MatMul(query, params.wq_wide),
        T::MatMul(wide_packs, params.wk_wide),
        T::MatMul(wide_packs, params.wv_wide), {0, block},
        /*causal=*/false, attention_scale,
        keep_artifacts ? &result.wide_attention : nullptr);
  } else {
    h_wide = T::Tensor(T::Shape::Matrix(1, d));  // zero contribution
  }

  // ---- PASS▷ (Eq. 4-6): every walk at once, one block per walk ----
  T::Tensor h_deep;
  if (deep_on) {
    obs::StageScope deep_stage(obs::Stage::kEncodePassDeep);
    const int64_t deep_rows = num_rows - deep_begin;
    T::Tensor deep_packs = deep_begin == 0
                               ? dropped
                               : T::SliceRows(dropped, deep_begin, deep_rows);
    // Eq. (4): refine each walk's pack sequence with a causal self-attention
    // so information flows from the walk tail toward the target only.
    T::Tensor refined =
        config.disable_successive_attention
            ? deep_packs
            : T::SegmentAttention(T::MatMul(deep_packs, params.wq_deep),
                                  T::MatMul(deep_packs, params.wk_deep),
                                  T::MatMul(deep_packs, params.wv_deep),
                                  deep_offsets, /*causal=*/true,
                                  attention_scale);
    // Eq. (5): each walk's target pack m_t▷ (after dropout) queries its
    // refined sequence; values come from the packs (M▷ W_V▷'), as printed.
    std::vector<int32_t> walk_heads(deep_offsets.begin(),
                                    deep_offsets.end() - 1);
    std::vector<float> weights;
    T::Tensor contexts = T::SegmentAttention(
        T::MatMul(T::GatherRows(deep_packs, walk_heads), params.wq_deep2),
        T::MatMul(refined, params.wk_deep2),
        T::MatMul(deep_packs, params.wv_deep2), deep_offsets,
        /*causal=*/false, attention_scale,
        keep_artifacts ? &weights : nullptr);
    if (keep_artifacts) {
      for (size_t phi = 0; phi + 1 < deep_offsets.size(); ++phi) {
        const int64_t begin = deep_offsets[phi], end = deep_offsets[phi + 1];
        result.deep_attention.emplace_back(weights.begin() + begin,
                                           weights.begin() + end);
        // Relay edges (Eq. 8) must read the true pack values, not the
        // dropout-perturbed ones.
        T::Tensor raw(T::Shape::Matrix(end - begin, d));
        std::memcpy(raw.mutable_data(), packs.data() + (deep_begin + begin) * d,
                    static_cast<size_t>((end - begin) * d) * sizeof(float));
        result.deep_pack_values.push_back(std::move(raw));
      }
    }
    // Average pooling over the Φ walks (Eq. 7).
    h_deep = contexts.rows() == 1 ? contexts : T::MeanRows(contexts);
  } else {
    h_deep = T::Tensor(T::Shape::Matrix(1, d));
  }

  // ---- Fuse (Eq. 7) ----
  obs::StageScope fuse_stage(obs::Stage::kEncodeFuse);
  T::Tensor fused = T::ConcatCols({h_wide, h_deep});
  T::Tensor hidden =
      T::Relu(T::Add(T::MatMul(fused, params.fuse_w), params.fuse_b));
  result.embedding = T::RowL2Normalize(hidden);
  return result;
}

RepTable::RepTable(int64_t num_nodes, int64_t embedding_dim)
    : RepTable(T::Tensor(T::Shape::Matrix(num_nodes, embedding_dim)),
               T::Tensor(T::Shape::Matrix(num_nodes, 1))) {}

RepTable::RepTable(T::Tensor reps, T::Tensor valid)
    : reps_tensor_(std::move(reps)),
      valid_tensor_(std::move(valid)),
      reps_(reps_tensor_.mutable_data()),
      valid_(valid_tensor_.mutable_data()),
      num_nodes_(reps_tensor_.rows()),
      embedding_dim_(reps_tensor_.cols()) {}

StatusOr<RepTable> RepTable::FromTensors(T::Tensor reps, T::Tensor valid,
                                         int64_t embedding_dim) {
  if (!reps.defined() || !valid.defined() || reps.shape().rank() != 2 ||
      reps.cols() != embedding_dim ||
      valid.shape() != T::Shape::Matrix(reps.rows(), 1)) {
    return Status::InvalidArgument(
        StrCat("embedding store must be [N, ", embedding_dim,
               "] reps with [N, 1] valid flags"));
  }
  return RepTable(std::move(reps), std::move(valid));
}

void RepTable::Store(graph::NodeId v, const float* row) {
  WIDEN_CHECK(v >= 0 && v < num_nodes_) << "node " << v << " outside [0, "
                                        << num_nodes_ << ")";
  std::memcpy(reps_ + v * embedding_dim_, row,
              static_cast<size_t>(embedding_dim_) * sizeof(float));
  valid_[v] = 1.0f;
}

uint64_t EvalSeedForNode(uint64_t base_seed, graph::NodeId node) {
  return base_seed ^ 0xE7A1ULL ^
         (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(node) + 1));
}

tensor::Tensor EncodeColdMean(const graph::GraphView& graph,
                              const EncoderParams& params,
                              const WidenConfig& config, graph::NodeId node,
                              const RepSource* reps) {
  const int64_t samples = std::max<int64_t>(1, config.eval_samples);
  Rng eval_rng(EvalSeedForNode(config.seed, node));
  T::Tensor mean;
  for (int64_t s = 0; s < samples; ++s) {
    TargetState state = SampleTargetState(graph, node, config, eval_rng);
    EncodeResult result = EncodeTarget(graph, params, config, state, reps,
                                       /*keep_artifacts=*/false, eval_rng);
    mean = mean.defined() ? T::Add(mean, result.embedding)
                          : result.embedding;
  }
  return T::RowL2Normalize(
      T::Scale(mean, 1.0f / static_cast<float>(samples)));
}

}  // namespace widen::core
