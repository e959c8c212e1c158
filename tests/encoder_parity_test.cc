// The stacked encoder (core::EncodeTarget) against the per-walk composition
// of Eq. 1-7 it replaced, kept here verbatim as the reference: the forward
// must be bitwise equal (embedding, attention weights, raw deep packs and
// the dropout stream) under every ablation switch, with stored rows, relay
// slots and ragged walks; parameter gradients must agree within DESIGN.md
// §8's training tolerance; and both must be identical across thread counts.

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/encoder.h"
#include "core/message_pack.h"
#include "datasets/synthetic.h"
#include "gtest/gtest.h"
#include "tensor/kernel_context.h"
#include "tensor/ops.h"

namespace widen::core {
namespace {

namespace T = widen::tensor;

// ---- Reference: the per-walk encoder, one small MatMul at a time ----------

struct SingleQueryAttention {
  T::Tensor context;
  std::vector<float> weights;
};

SingleQueryAttention AttendSingleQuery(const T::Tensor& query_row,
                                       const T::Tensor& keys,
                                       const T::Tensor& values,
                                       int64_t model_dim) {
  T::Tensor scores = T::Scale(
      T::MatMul(query_row, T::Transpose(keys)),
      1.0f / std::sqrt(static_cast<float>(model_dim)));
  T::Tensor attention = T::SoftmaxRows(scores);
  SingleQueryAttention out;
  out.context = T::MatMul(attention, values);
  out.weights.assign(attention.data(), attention.data() + attention.size());
  return out;
}

T::Tensor LookupReps(const graph::GraphView& graph,
                     const EncoderParams& params,
                     const std::vector<graph::NodeId>& nodes,
                     const RepSource* reps) {
  const int64_t d = params.embedding_dim();
  T::Tensor projected = ProjectNodes(graph, params.g_node, nodes);
  if (reps == nullptr) return projected;
  T::Tensor residual(projected.shape());
  float* rp = residual.mutable_data();
  const float* pp = projected.data();
  bool any_cached = false;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const float* src = reps->Lookup(nodes[i]);
    if (src == nullptr) continue;
    any_cached = true;
    float* row = rp + static_cast<int64_t>(i) * d;
    const float* prow = pp + static_cast<int64_t>(i) * d;
    for (int64_t j = 0; j < d; ++j) row[j] = src[j] - prow[j];
  }
  if (!any_cached) return projected;
  return T::Add(projected, residual);
}

EncodeResult ReferenceEncodeTarget(const graph::GraphView& graph,
                                   const EncoderParams& params,
                                   const WidenConfig& config,
                                   TargetState& state, const RepSource* reps,
                                   bool keep_artifacts, Rng& dropout_rng) {
  const int64_t d = params.embedding_dim();
  const graph::NodeTypeId target_type = graph.node_type(state.node);
  const bool training = keep_artifacts && !T::NoGradScope::Active();
  T::Tensor target_embedding =
      ProjectNodes(graph, params.g_node, {state.node});
  EncodeResult result;

  T::Tensor h_wide;
  if (!config.disable_wide) {
    T::Tensor neighbor_embeddings =
        state.wide.size() > 0
            ? LookupReps(graph, params, state.wide.nodes, reps)
            : T::Tensor(T::Shape::Matrix(0, d));
    T::Tensor packs = PackWide(target_embedding, neighbor_embeddings,
                               state.wide, target_type, *params.edges);
    T::Tensor query = T::SliceRows(packs, 0, 1);
    packs = T::Dropout(packs, config.dropout, dropout_rng, training);
    SingleQueryAttention attn = AttendSingleQuery(
        T::MatMul(query, params.wq_wide), T::MatMul(packs, params.wk_wide),
        T::MatMul(packs, params.wv_wide), d);
    h_wide = attn.context;
    if (keep_artifacts) result.wide_attention = std::move(attn.weights);
  } else {
    h_wide = T::Tensor(T::Shape::Matrix(1, d));
  }

  T::Tensor h_deep;
  if (!config.disable_deep) {
    std::vector<T::Tensor> deep_contexts;
    for (DeepNeighborState& deep : state.deeps) {
      T::Tensor node_embeddings =
          deep.size() > 0 ? LookupReps(graph, params, deep.nodes, reps)
                          : T::Tensor(T::Shape::Matrix(0, d));
      T::Tensor raw_packs = PackDeep(target_embedding, node_embeddings, deep,
                                     target_type, *params.edges);
      T::Tensor packs =
          T::Dropout(raw_packs, config.dropout, dropout_rng, training);
      T::Tensor refined;
      if (!config.disable_successive_attention) {
        T::Tensor scores = T::Scale(
            T::MatMul(T::MatMul(packs, params.wq_deep),
                      T::Transpose(T::MatMul(packs, params.wk_deep))),
            1.0f / std::sqrt(static_cast<float>(d)));
        T::Tensor attn_rows = T::MaskedSoftmaxRows(
            scores, T::CausalAttentionMask(packs.rows()));
        refined = T::MatMul(attn_rows, T::MatMul(packs, params.wv_deep));
      } else {
        refined = packs;
      }
      T::Tensor query = T::SliceRows(packs, 0, 1);
      SingleQueryAttention attn = AttendSingleQuery(
          T::MatMul(query, params.wq_deep2),
          T::MatMul(refined, params.wk_deep2),
          T::MatMul(packs, params.wv_deep2), d);
      deep_contexts.push_back(attn.context);
      if (keep_artifacts) {
        result.deep_attention.push_back(std::move(attn.weights));
        result.deep_pack_values.push_back(raw_packs.DetachedCopy());
      }
    }
    if (deep_contexts.size() == 1) {
      h_deep = deep_contexts[0];
    } else {
      h_deep = T::MeanRows(T::ConcatRows(deep_contexts));
    }
  } else {
    h_deep = T::Tensor(T::Shape::Matrix(1, d));
  }

  T::Tensor fused = T::ConcatCols({h_wide, h_deep});
  T::Tensor hidden =
      T::Relu(T::Add(T::MatMul(fused, params.fuse_w), params.fuse_b));
  result.embedding = T::RowL2Normalize(hidden);
  return result;
}

// ---- Fixture ---------------------------------------------------------------

// Stored rows for every third node, with values unrelated to the projection.
class SparseReps final : public RepSource {
 public:
  SparseReps(int64_t num_nodes, int64_t dim, uint64_t seed)
      : dim_(dim), data_(static_cast<size_t>(num_nodes * dim)) {
    Rng rng(seed);
    for (float& x : data_) x = rng.UniformFloat(-1.0f, 1.0f);
  }
  const float* Lookup(graph::NodeId v) const override {
    return v % 3 == 0 ? data_.data() + v * dim_ : nullptr;
  }

 private:
  int64_t dim_;
  std::vector<float> data_;
};

datasets::SyntheticGraphSpec Spec() {
  datasets::SyntheticGraphSpec spec;
  spec.name = "parity";
  spec.node_types = {{"paper", 90, true}, {"author", 40, false},
                     {"venue", 6, false}};
  spec.edge_types = {{"paper-author", "paper", "author", 3.0, 0.8},
                     {"paper-venue", "paper", "venue", 1.0, 0.9}};
  spec.num_classes = 3;
  spec.feature_dim = 19;
  spec.seed = 5;
  return spec;
}

WidenConfig BaseConfig(int64_t dim) {
  WidenConfig config;
  config.embedding_dim = dim;
  config.num_wide_neighbors = 11;
  config.num_deep_neighbors = 9;
  config.num_deep_walks = 3;
  config.dropout = 0.2f;
  config.seed = 8;
  return config;
}

struct Variant {
  const char* name;
  void (*apply)(WidenConfig&);
};

const Variant kVariants[] = {
    {"default", [](WidenConfig&) {}},
    {"no_wide", [](WidenConfig& c) { c.disable_wide = true; }},
    {"no_deep", [](WidenConfig& c) { c.disable_deep = true; }},
    {"no_successive_attention",
     [](WidenConfig& c) { c.disable_successive_attention = true; }},
    {"one_walk", [](WidenConfig& c) { c.num_deep_walks = 1; }},
    {"no_dropout", [](WidenConfig& c) { c.dropout = 0.0f; }},
};

// Sampled states made ragged the way Algorithms 1-2 leave them: walks cut
// to different lengths (one to nothing), relay vectors in some slots, and
// one target with an empty wide set.
std::vector<TargetState> RaggedStates(const graph::GraphView& graph,
                                      const WidenConfig& config) {
  Rng rng(config.seed + 1);
  std::vector<TargetState> states;
  for (graph::NodeId v : {0, 7, 33, 95, 120, 131}) {
    TargetState state = SampleTargetState(graph, v, config, rng);
    for (size_t phi = 0; phi < state.deeps.size(); ++phi) {
      DeepNeighborState& deep = state.deeps[phi];
      const size_t keep = deep.size() - std::min(deep.size(), phi * 3);
      deep.nodes.resize(keep);
      deep.edges.resize(keep);
      for (size_t s = 1; s < deep.edges.size(); s += 2) {
        deep.edges[s].relay.resize(static_cast<size_t>(config.embedding_dim));
        for (float& x : deep.edges[s].relay) {
          x = rng.UniformFloat(0.5f, 1.5f);
        }
      }
    }
    states.push_back(std::move(state));
  }
  states[2].wide.nodes.clear();
  states[2].wide.edge_types.clear();
  return states;
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

void ExpectBitwiseEqual(const EncodeResult& want, const EncodeResult& got,
                        const std::string& where) {
  ASSERT_EQ(want.embedding.shape(), got.embedding.shape()) << where;
  EXPECT_TRUE(SameBits(want.embedding.data(), got.embedding.data(),
                       want.embedding.size()))
      << where << ": embedding";
  EXPECT_EQ(want.wide_attention, got.wide_attention) << where;
  EXPECT_EQ(want.deep_attention, got.deep_attention) << where;
  ASSERT_EQ(want.deep_pack_values.size(), got.deep_pack_values.size())
      << where;
  for (size_t phi = 0; phi < want.deep_pack_values.size(); ++phi) {
    const T::Tensor& a = want.deep_pack_values[phi];
    const T::Tensor& b = got.deep_pack_values[phi];
    ASSERT_EQ(a.shape(), b.shape()) << where << ": walk " << phi;
    EXPECT_TRUE(SameBits(a.data(), b.data(), a.size()))
        << where << ": deep packs of walk " << phi;
  }
}

class EncoderParityTest : public ::testing::TestWithParam<int64_t> {
 protected:
  void SetUp() override {
    auto graph = datasets::GenerateSyntheticGraph(Spec());
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<graph::HeteroGraph>(std::move(graph).value());
    view_ = std::make_unique<graph::HeteroGraphView>(*graph_);
    dims_.feature_dim = graph_->feature_dim();
    dims_.num_edge_types = graph_->schema().num_edge_types();
    dims_.num_node_types = graph_->schema().num_node_types();
    dims_.embedding_dim = GetParam();
    dims_.num_classes = graph_->num_classes();
    reps_ = std::make_unique<SparseReps>(graph_->num_nodes(), GetParam(), 3);
  }
  void TearDown() override { T::KernelContext::Get().SetNumThreads(1); }

  std::unique_ptr<graph::HeteroGraph> graph_;
  std::unique_ptr<graph::HeteroGraphView> view_;
  EncoderDims dims_;
  std::unique_ptr<SparseReps> reps_;
};

// Every ablation, with and without a store, on the taped training path
// (dropout drawn) and on tape-free passes with and without artifacts.
TEST_P(EncoderParityTest, ForwardIsBitwiseUnderEveryAblation) {
  for (const Variant& variant : kVariants) {
    WidenConfig config = BaseConfig(GetParam());
    variant.apply(config);
    Rng init(config.seed);
    const EncoderParams params = EncoderParams::CreateInitialized(dims_, init);
    for (const RepSource* reps : {static_cast<const RepSource*>(nullptr),
                                  static_cast<const RepSource*>(reps_.get())}) {
      for (int mode = 0; mode < 3; ++mode) {
        const bool keep = mode != 2;
        std::unique_ptr<T::NoGradScope> no_grad;
        if (mode != 0) no_grad = std::make_unique<T::NoGradScope>();
        std::vector<TargetState> want_states = RaggedStates(*view_, config);
        std::vector<TargetState> got_states = want_states;
        Rng want_rng(77), got_rng(77);
        for (size_t t = 0; t < want_states.size(); ++t) {
          const std::string where =
              std::string(variant.name) + (reps ? " stored" : " fresh") +
              " mode " + std::to_string(mode) + " target " +
              std::to_string(t);
          const EncodeResult want = ReferenceEncodeTarget(
              *view_, params, config, want_states[t], reps, keep, want_rng);
          const EncodeResult got = EncodeTarget(
              *view_, params, config, got_states[t], reps, keep, got_rng);
          ExpectBitwiseEqual(want, got, where);
        }
        EXPECT_EQ(want_rng.NextUint64(), got_rng.NextUint64())
            << variant.name << ": dropout stream diverged";
      }
    }
  }
}

// Gradients of a fixed linear read-out of the embeddings, taken with the
// same dropout masks.
std::vector<std::vector<float>> Gradients(
    const graph::GraphView& graph, const EncoderParams& params,
    const WidenConfig& config, const RepSource* reps, bool reference) {
  for (T::Tensor p : params.All()) p.ZeroGrad();
  std::vector<TargetState> states = RaggedStates(graph, config);
  Rng dropout_rng(91), readout_rng(17);
  T::Tensor loss;
  for (TargetState& state : states) {
    const EncodeResult result =
        reference ? ReferenceEncodeTarget(graph, params, config, state, reps,
                                          true, dropout_rng)
                  : EncodeTarget(graph, params, config, state, reps, true,
                                 dropout_rng);
    std::vector<float> w(static_cast<size_t>(params.embedding_dim()));
    for (float& x : w) x = readout_rng.UniformFloat(-1.0f, 1.0f);
    T::Tensor term = T::SumAll(T::Mul(
        result.embedding,
        T::Tensor::FromVector(result.embedding.shape(), std::move(w))));
    loss = loss.defined() ? T::Add(loss, term) : term;
  }
  loss.Backward();
  std::vector<std::vector<float>> grads;
  for (const T::Tensor& p : params.All()) {
    grads.emplace_back(p.grad(), p.grad() + p.size());
  }
  return grads;
}

// DESIGN.md §8: the stacked backward sums in another order, so each
// parameter's gradient may move by at most 1e-5 of its largest entry.
constexpr double kGradientTolerance = 1e-5;

TEST_P(EncoderParityTest, GradientsMatchWithinTrainingTolerance) {
  WidenConfig config = BaseConfig(GetParam());
  Rng init(config.seed);
  const EncoderParams params = EncoderParams::CreateInitialized(dims_, init);
  const auto want = Gradients(*view_, params, config, reps_.get(), true);
  const auto got = Gradients(*view_, params, config, reps_.get(), false);
  ASSERT_EQ(want.size(), got.size());
  for (size_t p = 0; p < want.size(); ++p) {
    double largest = 0.0, worst = 0.0;
    for (size_t i = 0; i < want[p].size(); ++i) {
      largest = std::max(largest, std::abs(static_cast<double>(want[p][i])));
      worst = std::max(worst, std::abs(static_cast<double>(want[p][i]) -
                                       static_cast<double>(got[p][i])));
    }
    // The classifier C is not part of the encoder: zero on both sides.
    EXPECT_LE(worst, kGradientTolerance * largest)
        << EncoderParams::CanonicalLabels()[p] << ": largest " << largest;
  }
}

TEST_P(EncoderParityTest, IdenticalAcrossThreadCounts) {
  WidenConfig config = BaseConfig(GetParam());
  Rng init(config.seed);
  const EncoderParams params = EncoderParams::CreateInitialized(dims_, init);
  std::vector<std::vector<float>> first_grads;
  std::vector<float> first_embeddings;
  for (int threads : {1, 2, 7}) {
    T::KernelContext::Get().SetNumThreads(threads);
    std::vector<float> embeddings;
    {
      T::NoGradScope no_grad;
      std::vector<TargetState> states = RaggedStates(*view_, config);
      Rng rng(5);
      for (TargetState& state : states) {
        const EncodeResult r =
            EncodeTarget(*view_, params, config, state, reps_.get(), true,
                         rng);
        embeddings.insert(embeddings.end(), r.embedding.data(),
                          r.embedding.data() + r.embedding.size());
      }
    }
    const auto grads = Gradients(*view_, params, config, reps_.get(), false);
    if (threads == 1) {
      first_grads = grads;
      first_embeddings = embeddings;
      continue;
    }
    EXPECT_EQ(first_embeddings, embeddings) << threads << " threads";
    EXPECT_EQ(first_grads, grads) << threads << " threads";
  }
}

TEST_P(EncoderParityTest, ProjectionTableIsBitwise) {
  WidenConfig config = BaseConfig(GetParam());
  Rng init(config.seed);
  const EncoderParams params = EncoderParams::CreateInitialized(dims_, init);
  T::NoGradScope no_grad;
  std::vector<graph::NodeId> all;
  for (graph::NodeId v = 0; v < graph_->num_nodes(); ++v) all.push_back(v);
  const T::Tensor table = ProjectNodes(*view_, params.g_node, all);
  std::vector<TargetState> plain = RaggedStates(*view_, config);
  std::vector<TargetState> tabled = plain;
  Rng plain_rng(3), tabled_rng(3);
  for (size_t t = 0; t < plain.size(); ++t) {
    const EncodeResult want = EncodeTarget(*view_, params, config, plain[t],
                                           reps_.get(), true, plain_rng);
    const EncodeResult got =
        EncodeTarget(*view_, params, config, tabled[t], reps_.get(), true,
                     tabled_rng, &table);
    ExpectBitwiseEqual(want, got, "target " + std::to_string(t));
  }
}

// d = 20 exercises the non-FMA tail columns of every kernel, d = 64 the
// all-vector shapes of the default configuration.
INSTANTIATE_TEST_SUITE_P(Dims, EncoderParityTest, ::testing::Values(20, 64));

}  // namespace
}  // namespace widen::core
