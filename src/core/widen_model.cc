#include "core/widen_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "tensor/autograd.h"
#include "tensor/inference.h"
#include "tensor/init.h"
#include "tensor/kernel_context.h"
#include "tensor/ops.h"
#include "util/byte_io.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace widen::core {
namespace {

namespace T = widen::tensor;

// Presents one EmbeddingCache to the shared encode path.
class CacheRepSource final : public RepSource {
 public:
  CacheRepSource(const std::vector<float>& data,
                 const std::vector<bool>& valid, int64_t embedding_dim)
      : data_(data), valid_(valid), embedding_dim_(embedding_dim) {}

  const float* Lookup(graph::NodeId v) const override {
    if (!valid_[static_cast<size_t>(v)]) return nullptr;
    return data_.data() + static_cast<int64_t>(v) * embedding_dim_;
  }

 private:
  const std::vector<float>& data_;
  const std::vector<bool>& valid_;
  int64_t embedding_dim_;
};

}  // namespace

StatusOr<std::unique_ptr<WidenModel>> WidenModel::Create(
    const graph::HeteroGraph* graph, const WidenConfig& config) {
  if (graph == nullptr) {
    return Status::InvalidArgument("graph must not be null");
  }
  WIDEN_RETURN_IF_ERROR(config.Validate());
  if (config.num_threads > 0) {
    T::KernelContext::Get().SetNumThreads(
        static_cast<int>(config.num_threads));
  }
  if (!graph->features().defined()) {
    return Status::FailedPrecondition("graph has no node features");
  }
  if (!graph->has_labels()) {
    return Status::FailedPrecondition("graph has no labels");
  }
  return std::unique_ptr<WidenModel>(new WidenModel(graph, config));
}

WidenModel::WidenModel(const graph::HeteroGraph* graph,
                       const WidenConfig& config)
    : graph_(graph), config_(config), rng_(config.seed) {
  EncoderDims dims;
  dims.feature_dim = graph_->feature_dim();
  dims.num_edge_types = graph_->schema().num_edge_types();
  dims.num_node_types = graph_->schema().num_node_types();
  dims.embedding_dim = config_.embedding_dim;
  dims.num_classes = graph_->num_classes();
  params_ = EncoderParams::CreateInitialized(dims, rng_);

  optimizer_ = std::make_unique<T::Adam>(config_.learning_rate,
                                         /*beta1=*/0.9f, /*beta2=*/0.999f,
                                         /*epsilon=*/1e-8f,
                                         config_.l2_regularization);
  optimizer_->AddParameters(Parameters());
}

std::vector<T::Tensor> WidenModel::Parameters() const {
  return params_.All();
}

int64_t WidenModel::TotalParameterCount() const {
  int64_t total = 0;
  for (const T::Tensor& p : Parameters()) total += p.size();
  return total;
}

T::Tensor WidenModel::ProjectionTable(const graph::HeteroGraph& graph) const {
  std::vector<graph::NodeId> all(static_cast<size_t>(graph.num_nodes()));
  for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
    all[static_cast<size_t>(v)] = v;
  }
  T::NoGradScope no_grad;
  return core::ProjectNodes(graph::HeteroGraphView(graph), params_.g_node,
                            all);
}

WidenModel::EmbeddingCache& WidenModel::CacheFor(
    const graph::HeteroGraph& graph) {
  EmbeddingCache& cache = caches_[graph.uid()];
  const size_t wanted =
      static_cast<size_t>(graph.num_nodes() * config_.embedding_dim);
  if (cache.data.size() != wanted) {
    cache.data.assign(wanted, 0.0f);
    cache.valid.assign(static_cast<size_t>(graph.num_nodes()), false);
  }
  return cache;
}

void WidenModel::StoreRep(const graph::HeteroGraph& graph,
                          graph::NodeId node, const T::Tensor& row) {
  WIDEN_CHECK_EQ(row.rows(), 1);
  WIDEN_CHECK_EQ(row.cols(), config_.embedding_dim);
  EmbeddingCache& cache = CacheFor(graph);
  std::copy(row.data(), row.data() + config_.embedding_dim,
            cache.data.data() +
                static_cast<int64_t>(node) * config_.embedding_dim);
  cache.valid[static_cast<size_t>(node)] = true;
}

void WidenModel::RefreshCache(const graph::HeteroGraph& graph,
                              int64_t passes) {
  // Built outside the inference scope, so its buffer is freed at exit
  // rather than parked in the thread's inference buffer pool.
  const T::Tensor projections = ProjectionTable(graph);
  T::InferenceScope inference;
  Rng refresh_rng(config_.seed ^ 0x2EF2E54ULL);
  for (int64_t pass = 0; pass < passes; ++pass) {
    for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
      TargetState state = SampleTargetState(graph, v, refresh_rng);
      ForwardResult result =
          Forward(graph, state, /*keep_artifacts=*/false, &projections);
      StoreRep(graph, v, result.embedding);
    }
  }
}

WidenModel::TargetState WidenModel::SampleTargetState(
    const graph::HeteroGraph& graph, graph::NodeId node, Rng& rng) const {
  obs::StageScope sampling_stage(obs::Stage::kSampling);
  if (sampling_view_ != nullptr && &graph == graph_) {
    return core::SampleTargetState(*sampling_view_, node, config_, rng);
  }
  return core::SampleTargetState(graph::HeteroGraphView(graph), node, config_,
                                 rng);
}

WidenModel::ForwardResult WidenModel::Forward(
    const graph::HeteroGraph& graph, TargetState& state, bool keep_artifacts,
    const T::Tensor* projections) {
  obs::StageScope forward_stage(obs::Stage::kForward);
  EmbeddingCache& cache = CacheFor(graph);
  CacheRepSource reps(cache.data, cache.valid, config_.embedding_dim);
  return EncodeTarget(graph::HeteroGraphView(graph), params_, config_, state,
                      &reps, keep_artifacts, rng_, projections);
}

void WidenModel::MaybeDownsample(TargetState& state,
                                 const ForwardResult& result,
                                 WidenEpochLog& log) {
  if (config_.disable_downsampling) return;

  // Wide set (Algorithm 1), gated by Eq. (9) unless the random ablation is
  // active.
  if (!config_.disable_wide &&
      static_cast<int64_t>(state.wide.size()) > config_.wide_lower_bound) {
    if (config_.random_wide_downsampling) {
      ShrinkWideSetRandom(state.wide, rng_);
      ++log.wide_drops;
    } else {
      const uint64_t signature = HashNodeSequence(state.wide.nodes);
      const double kl = wide_tracker_.UpdateAndComputeKl(
          state.node, signature, result.wide_attention);
      if (kl < static_cast<double>(config_.wide_kl_threshold)) {
        ShrinkWideSet(state.wide, result.wide_attention);
        ++log.wide_drops;
      }
    }
  }

  // Deep sets (Algorithm 2 with relay edges, Eq. 8).
  if (!config_.disable_deep) {
    for (size_t phi = 0; phi < state.deeps.size(); ++phi) {
      DeepNeighborState& deep = state.deeps[phi];
      if (static_cast<int64_t>(deep.size()) <= config_.deep_lower_bound) {
        continue;
      }
      const bool use_relay = !config_.disable_relay_edges;
      if (config_.random_deep_downsampling) {
        PruneDeepStateRandom(deep, result.deep_pack_values[phi], *params_.edges,
                             use_relay, rng_);
        ++log.deep_drops;
      } else {
        const int64_t key =
            static_cast<int64_t>(state.node) * config_.num_deep_walks +
            static_cast<int64_t>(phi);
        const uint64_t signature = HashNodeSequence(deep.nodes);
        const double kl = deep_tracker_.UpdateAndComputeKl(
            key, signature, result.deep_attention[phi]);
        if (kl < static_cast<double>(config_.deep_kl_threshold)) {
          PruneDeepState(deep, result.deep_attention[phi],
                         result.deep_pack_values[phi], *params_.edges, use_relay);
          ++log.deep_drops;
        }
      }
    }
  }
}

StatusOr<WidenTrainReport> WidenModel::Train(
    const std::vector<graph::NodeId>& train_nodes,
    const std::function<void(const WidenEpochLog&)>& epoch_observer) {
  return TrainUntil(current_epoch_ + config_.max_epochs, train_nodes,
                    epoch_observer);
}

StatusOr<WidenTrainReport> WidenModel::TrainUntil(
    int64_t target_epoch, const std::vector<graph::NodeId>& train_nodes,
    const std::function<void(const WidenEpochLog&)>& epoch_observer) {
  if (train_nodes.empty()) {
    return Status::InvalidArgument("no training nodes");
  }
  for (graph::NodeId v : train_nodes) {
    if (v < 0 || v >= graph_->num_nodes()) {
      return Status::OutOfRange(StrCat("train node ", v, " out of range"));
    }
    if (graph_->label(v) < 0) {
      return Status::InvalidArgument(StrCat("train node ", v, " is unlabeled"));
    }
  }

  // Algorithm 3 line 3: sample W(v_t) and D(v_t) once for ALL v in V —
  // every epoch refreshes every node's stateful embedding (Eq. 10 masks the
  // unlabeled ones out of the loss), which is how information reaches
  // farther than one hop as epochs accumulate.
  {
    obs::StageScope states_stage(obs::Stage::kSampleTargetStates);
    for (graph::NodeId v = 0; v < graph_->num_nodes(); ++v) {
      if (target_states_.find(v) == target_states_.end()) {
        target_states_.emplace(v, SampleTargetState(*graph_, v, rng_));
      }
    }
  }
  std::vector<bool> in_train_set(static_cast<size_t>(graph_->num_nodes()),
                                 false);
  for (graph::NodeId v : train_nodes) {
    in_train_set[static_cast<size_t>(v)] = true;
  }
  CacheFor(*graph_);  // allocate the training graph's embedding store

  WidenTrainReport report;
  StopWatch total_watch;
  // Canonical visit orders, re-copied and shuffled from scratch each epoch:
  // the permutation depends only on (train_nodes, current RNG state), so a
  // run restored from a checkpoint at any epoch boundary replays the exact
  // shuffles of the uninterrupted run.
  const std::vector<graph::NodeId>& supervised_canonical = train_nodes;
  std::vector<graph::NodeId> refresh_canonical;
  refresh_canonical.reserve(static_cast<size_t>(graph_->num_nodes()) -
                            train_nodes.size());
  for (graph::NodeId v = 0; v < graph_->num_nodes(); ++v) {
    if (!in_train_set[static_cast<size_t>(v)]) refresh_canonical.push_back(v);
  }
  std::vector<graph::NodeId> supervised_order;
  std::vector<graph::NodeId> refresh_order;
  WIDEN_METRIC_HISTOGRAM(epoch_seconds, "widen_train_epoch_seconds",
                         "Wall time per training epoch (seconds)");
  WIDEN_METRIC_GAUGE(loss_gauge, "widen_train_loss",
                     "Mean supervised loss of the most recent epoch");
  WIDEN_METRIC_GAUGE(grad_norm_gauge, "widen_train_grad_norm",
                     "Global gradient L2 norm of the last batch of the most "
                     "recent epoch");
  WIDEN_METRIC_COUNTER(epochs_total, "widen_train_epochs_total",
                       "Completed training epochs");
  WIDEN_METRIC_COUNTER(wide_drops_total, "widen_train_kl_wide_drops_total",
                       "Wide neighbors pruned by the KL trigger (Eq. 9)");
  WIDEN_METRIC_COUNTER(deep_drops_total, "widen_train_kl_deep_drops_total",
                       "Deep walk nodes pruned by the KL trigger (Eq. 9)");
  while (current_epoch_ < target_epoch) {
    obs::StageScope epoch_stage(obs::Stage::kTrainEpoch);
    StopWatch epoch_watch;
    WidenEpochLog log;
    log.epoch = current_epoch_;
    double loss_sum = 0.0;
    double last_grad_norm = 0.0;
    int64_t batches = 0;

    // Supervised mini-batches over the labeled training nodes (Eq. 10).
    supervised_order = supervised_canonical;
    rng_.Shuffle(supervised_order);
    {
      obs::StageScope batches_stage(obs::Stage::kSupervisedBatches);
      for (size_t begin = 0; begin < supervised_order.size();
           begin += static_cast<size_t>(config_.batch_size)) {
        const size_t end =
            std::min(supervised_order.size(),
                     begin + static_cast<size_t>(config_.batch_size));
        std::vector<T::Tensor> embeddings;
        std::vector<int32_t> labels;
        embeddings.reserve(end - begin);
        labels.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          const graph::NodeId v = supervised_order[i];
          TargetState& state = target_states_.at(v);
          ForwardResult result =
              Forward(*graph_, state, /*keep_artifacts=*/true);
          embeddings.push_back(result.embedding);
          labels.push_back(graph_->label(v));
          // Algorithm 3 lines 9-13: downsampling needs at least one full
          // prior epoch over the same sets (the KL gate enforces it; the
          // epoch guard below mirrors the printed "z > 1" condition).
          if (current_epoch_ >= 1) MaybeDownsample(state, result, log);
          // "v_t' replaces the original node embedding."
          StoreRep(*graph_, v, result.embedding.DetachedCopy());
        }
        T::Tensor batch = T::ConcatRows(embeddings);
        T::Tensor logits = T::MatMul(batch, params_.classifier);
        T::Tensor loss = T::SoftmaxCrossEntropy(logits, labels);
        optimizer_->ZeroGrad();
        loss.Backward();
        // Pre-step gradient norm for the dashboard; the huge max_norm means
        // no gradient is actually rescaled, so numerics are untouched.
        if (obs::MetricsEnabled()) {
          last_grad_norm = optimizer_->ClipGradNorm(1e30);
        }
        {
          obs::StageScope optimizer_stage(obs::Stage::kOptimizer);
          optimizer_->Step();
        }
        loss_sum += loss.item();
        ++batches;
      }
    }

    // Stateful-embedding refresh for every other node of V (Algorithm 3
    // iterates all of V; unlabeled nodes contribute no loss, Eq. 10). This
    // sweep is what pushes information one hop further per epoch.
    {
      obs::StageScope refresh_stage(obs::Stage::kRefreshSweep);
      T::NoGradScope no_grad;
      const T::Tensor projections = ProjectionTable(*graph_);
      refresh_order = refresh_canonical;
      rng_.Shuffle(refresh_order);
      for (graph::NodeId v : refresh_order) {
        TargetState& state = target_states_.at(v);
        ForwardResult result = Forward(*graph_, state,
                                       /*keep_artifacts=*/true, &projections);
        if (current_epoch_ >= 1) MaybeDownsample(state, result, log);
        StoreRep(*graph_, v, result.embedding);
      }
    }

    log.mean_loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
    log.seconds = epoch_watch.ElapsedSeconds();
    double wide_total = 0.0, deep_total = 0.0;
    int64_t deep_sets = 0;
    for (graph::NodeId v : train_nodes) {
      const TargetState& state = target_states_.at(v);
      wide_total += static_cast<double>(state.wide.size());
      for (const DeepNeighborState& deep : state.deeps) {
        deep_total += static_cast<double>(deep.size());
        ++deep_sets;
      }
    }
    log.mean_wide_size =
        wide_total / static_cast<double>(train_nodes.size());
    log.mean_deep_size =
        deep_sets > 0 ? deep_total / static_cast<double>(deep_sets) : 0.0;
    report.epochs.push_back(log);
    epoch_seconds->Record(log.seconds);
    loss_gauge->Set(log.mean_loss);
    grad_norm_gauge->Set(last_grad_norm);
    epochs_total->Increment();
    wide_drops_total->Add(log.wide_drops);
    deep_drops_total->Add(log.deep_drops);
    // The counter advances BEFORE the observer so that a checkpoint taken
    // inside it records this epoch as completed (train/trainer.h).
    ++current_epoch_;
    if (epoch_observer) epoch_observer(log);
  }
  // One final coherent refresh: every cached representation is recomputed
  // with the fully trained parameters (mid-epoch rows were written under
  // older parameter values).
  RefreshCache(*graph_, 1);
  report.total_seconds = total_watch.ElapsedSeconds();
  return report;
}

StatusOr<WidenTrainReport> WidenModel::TrainUnsupervised(
    int64_t walk_length, int64_t window, int64_t negatives,
    const std::function<void(const WidenEpochLog&)>& epoch_observer) {
  if (walk_length < 2 || window < 1 || negatives < 1) {
    return Status::InvalidArgument("bad unsupervised-training parameters");
  }
  for (graph::NodeId v = 0; v < graph_->num_nodes(); ++v) {
    if (target_states_.find(v) == target_states_.end()) {
      target_states_.emplace(v, SampleTargetState(*graph_, v, rng_));
    }
  }
  CacheFor(*graph_);

  // Auxiliary per-node CONTEXT vectors (skip-gram output table). Breaking
  // the encoder/context symmetry prevents representation collapse; the
  // table is a training artifact only — the encoder stays inductive.
  T::Tensor context_table = T::NormalInit(
      T::Shape::Matrix(graph_->num_nodes(), config_.embedding_dim), rng_,
      0.1f, "sgns_context");
  T::Adam context_optimizer(config_.learning_rate);
  context_optimizer.AddParameter(context_table);

  WidenTrainReport report;
  StopWatch total_watch;
  std::vector<graph::NodeId> order(static_cast<size_t>(graph_->num_nodes()));
  for (graph::NodeId v = 0; v < graph_->num_nodes(); ++v) {
    order[static_cast<size_t>(v)] = v;
  }
  for (int64_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    StopWatch epoch_watch;
    WidenEpochLog log;
    log.epoch = current_epoch_;
    rng_.Shuffle(order);
    double loss_sum = 0.0;
    int64_t steps = 0;

    for (graph::NodeId target : order) {
      TargetState& state = target_states_.at(target);
      ForwardResult result = Forward(*graph_, state, /*keep_artifacts=*/true);

      // Positive context: a co-occurring node on a fresh short walk.
      // Contexts come from the auxiliary table; the encoder output is the
      // query. InfoNCE against uniform negatives.
      sampling::DeepNeighborSequence walk =
          sampling::SampleDeepWalk(*graph_, target, walk_length, rng_);
      if (!walk.nodes.empty()) {
        const size_t pick = static_cast<size_t>(rng_.UniformInt(std::min(
            static_cast<uint64_t>(walk.nodes.size()),
            static_cast<uint64_t>(window))));
        std::vector<int32_t> context_ids = {walk.nodes[pick]};
        for (int64_t n = 0; n < negatives; ++n) {
          context_ids.push_back(static_cast<int32_t>(
              rng_.UniformInt(static_cast<uint64_t>(graph_->num_nodes()))));
        }
        T::Tensor contexts = T::GatherRows(context_table, context_ids);
        T::Tensor scores =
            T::MatMul(result.embedding, T::Transpose(contexts));
        T::Tensor loss = T::SoftmaxCrossEntropy(scores, {0});
        optimizer_->ZeroGrad();
        context_optimizer.ZeroGrad();
        loss.Backward();
        {
          obs::StageScope optimizer_stage(obs::Stage::kOptimizer);
          optimizer_->Step();
          context_optimizer.Step();
        }
        loss_sum += loss.item();
        ++steps;
      }
      if (current_epoch_ >= 1) MaybeDownsample(state, result, log);
      StoreRep(*graph_, target, result.embedding.DetachedCopy());
    }

    log.mean_loss = steps > 0 ? loss_sum / static_cast<double>(steps) : 0.0;
    log.seconds = epoch_watch.ElapsedSeconds();
    report.epochs.push_back(log);
    if (epoch_observer) epoch_observer(log);
    ++current_epoch_;
  }
  RefreshCache(*graph_, 1);
  report.total_seconds = total_watch.ElapsedSeconds();
  return report;
}

T::Tensor WidenModel::EmbedNodes(const graph::HeteroGraph& graph,
                                 const std::vector<graph::NodeId>& nodes) {
  T::InferenceScope inference;
  // Algorithm 3's output IS the embedding store ("vector representations
  // v_t for all v_t in V"), so nodes of the training graph are read from
  // the cache directly. A graph never seen before (inductive evaluation)
  // first gets warm-up refresh passes so every node — including the unseen
  // ones — carries the same multi-hop representation training produced.
  if (caches_.find(graph.uid()) == caches_.end()) {
    RefreshCache(graph, config_.eval_refresh_passes);
  }
  EmbeddingCache& cache = CacheFor(graph);
  const int64_t d = config_.embedding_dim;
  graph::HeteroGraphView view(graph);
  CacheRepSource reps(cache.data, cache.valid, d);
  T::Tensor out(T::Shape::Matrix(static_cast<int64_t>(nodes.size()), d));
  float* dst = out.mutable_data();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const graph::NodeId v = nodes[i];
    float* row = dst + static_cast<int64_t>(i) * d;
    if (cache.valid[static_cast<size_t>(v)]) {
      const float* src = cache.data.data() + static_cast<int64_t>(v) * d;
      std::copy(src, src + d, row);
      continue;
    }
    // Cold node (e.g. EmbedNodes before Train, or a row seeded invalid via
    // SeedCache): averaged over independent neighborhood samples drawn from
    // a per-node RNG stream, so the result does not depend on which other
    // nodes share the batch (core/encoder.h, EvalSeedForNode).
    T::Tensor mean = EncodeColdMean(view, params_, config_, v, &reps);
    std::copy(mean.data(), mean.data() + d, row);
  }
  return out;
}

std::vector<int32_t> WidenModel::Predict(
    const graph::HeteroGraph& graph, const std::vector<graph::NodeId>& nodes) {
  T::Tensor embeddings = EmbedNodes(graph, nodes);
  T::Tensor logits = T::MatMul(embeddings, params_.classifier);
  return T::ArgMaxRows(logits);
}

bool WidenModel::ExportTrainingCache(T::Tensor* reps,
                                     T::Tensor* valid) const {
  auto it = caches_.find(graph_->uid());
  if (it == caches_.end() || it->second.data.empty()) return false;
  const EmbeddingCache& cache = it->second;
  const int64_t n = graph_->num_nodes();
  const int64_t d = config_.embedding_dim;
  *reps = T::Tensor::FromVector(T::Shape::Matrix(n, d), cache.data);
  *valid = T::Tensor(T::Shape::Matrix(n, 1));
  for (int64_t v = 0; v < n; ++v) {
    valid->set(v, 0, cache.valid[static_cast<size_t>(v)] ? 1.0f : 0.0f);
  }
  return true;
}

Status WidenModel::ImportTrainingCache(const T::Tensor& reps,
                                       const T::Tensor& valid) {
  return SeedCache(*graph_, reps, valid);
}

Status WidenModel::SeedCache(const graph::HeteroGraph& graph,
                             const T::Tensor& reps, const T::Tensor& valid) {
  const int64_t n = graph.num_nodes();
  const int64_t d = config_.embedding_dim;
  if (!reps.defined() || reps.shape() != T::Shape::Matrix(n, d)) {
    return Status::InvalidArgument("cache reps shape mismatch");
  }
  if (!valid.defined() || valid.shape() != T::Shape::Matrix(n, 1)) {
    return Status::InvalidArgument("cache valid shape mismatch");
  }
  EmbeddingCache& cache = CacheFor(graph);
  cache.data.assign(reps.data(), reps.data() + reps.size());
  for (int64_t v = 0; v < n; ++v) {
    cache.valid[static_cast<size_t>(v)] = valid.at(v, 0) != 0.0f;
  }
  return Status::OK();
}

namespace {

constexpr uint32_t kResumeStateVersion = 1;
// Upper bounds for blob parsing; generous relative to any real run but small
// enough that a corrupted length cannot drive a huge allocation.
constexpr uint64_t kMaxResumeVectorElements = uint64_t{1} << 28;
constexpr uint64_t kMaxResumeEntries = uint64_t{1} << 24;

void WriteTrackerSnapshots(
    ByteWriter& writer,
    const std::vector<AttentionTracker::Snapshot>& entries) {
  writer.WriteScalar<uint64_t>(entries.size());
  for (const AttentionTracker::Snapshot& entry : entries) {
    writer.WriteScalar<int64_t>(entry.key);
    writer.WriteScalar<uint64_t>(entry.signature);
    writer.WriteVector(entry.attention);
  }
}

bool ReadTrackerSnapshots(ByteReader& reader,
                          std::vector<AttentionTracker::Snapshot>* entries) {
  uint64_t count = 0;
  if (!reader.ReadScalar(&count) || count > kMaxResumeEntries) return false;
  entries->clear();
  entries->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    AttentionTracker::Snapshot entry;
    if (!reader.ReadScalar(&entry.key) ||
        !reader.ReadScalar(&entry.signature) ||
        !reader.ReadVector(&entry.attention, kMaxResumeVectorElements)) {
      return false;
    }
    entries->push_back(std::move(entry));
  }
  return true;
}

}  // namespace

std::string WidenModel::ExportResumeState() const {
  std::string blob;
  ByteWriter writer(&blob);
  writer.WriteScalar<uint32_t>(kResumeStateVersion);
  writer.WriteScalar<int64_t>(current_epoch_);

  const Rng::State rng_state = rng_.SaveState();
  for (uint64_t word : rng_state.words) writer.WriteScalar<uint64_t>(word);
  writer.WriteScalar<uint8_t>(rng_state.have_cached_normal ? 1 : 0);
  writer.WriteScalar<double>(rng_state.cached_normal);

  writer.WriteScalar<int64_t>(optimizer_->step_count());
  const auto& m = optimizer_->first_moments();
  const auto& v = optimizer_->second_moments();
  writer.WriteScalar<uint64_t>(m.size());
  for (size_t k = 0; k < m.size(); ++k) {
    writer.WriteVector(m[k]);
    writer.WriteVector(v[k]);
  }

  // Target states in ascending node order so the bytes are canonical
  // regardless of hash-map iteration order.
  std::vector<graph::NodeId> targets;
  targets.reserve(target_states_.size());
  for (const auto& [node, state] : target_states_) targets.push_back(node);
  std::sort(targets.begin(), targets.end());
  writer.WriteScalar<uint64_t>(targets.size());
  for (graph::NodeId node : targets) {
    const TargetState& state = target_states_.at(node);
    writer.WriteScalar<int32_t>(node);
    writer.WriteVector(state.wide.nodes);
    writer.WriteVector(state.wide.edge_types);
    writer.WriteScalar<uint32_t>(static_cast<uint32_t>(state.deeps.size()));
    for (const DeepNeighborState& deep : state.deeps) {
      writer.WriteVector(deep.nodes);
      writer.WriteScalar<uint32_t>(static_cast<uint32_t>(deep.edges.size()));
      for (const DeepEdgeSlot& slot : deep.edges) {
        writer.WriteScalar<int32_t>(slot.edge_type);
        writer.WriteVector(slot.relay);
      }
    }
  }

  WriteTrackerSnapshots(writer, wide_tracker_.Export());
  WriteTrackerSnapshots(writer, deep_tracker_.Export());
  return blob;
}

Status WidenModel::ImportResumeState(const std::string& blob) {
  const Status corrupt =
      Status::InvalidArgument("resume state blob is corrupt or truncated");
  ByteReader reader(blob);

  uint32_t version = 0;
  if (!reader.ReadScalar(&version)) return corrupt;
  if (version != kResumeStateVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported resume state version ", version));
  }

  int64_t epoch = 0;
  if (!reader.ReadScalar(&epoch) || epoch < 0) return corrupt;

  Rng::State rng_state;
  for (uint64_t& word : rng_state.words) {
    if (!reader.ReadScalar(&word)) return corrupt;
  }
  uint8_t have_cached = 0;
  if (!reader.ReadScalar(&have_cached) || have_cached > 1 ||
      !reader.ReadScalar(&rng_state.cached_normal)) {
    return corrupt;
  }
  rng_state.have_cached_normal = have_cached == 1;

  int64_t adam_step = 0;
  uint64_t moment_count = 0;
  if (!reader.ReadScalar(&adam_step) || !reader.ReadScalar(&moment_count) ||
      moment_count > kMaxResumeEntries) {
    return corrupt;
  }
  std::vector<std::vector<float>> m(static_cast<size_t>(moment_count));
  std::vector<std::vector<float>> v(static_cast<size_t>(moment_count));
  for (uint64_t k = 0; k < moment_count; ++k) {
    if (!reader.ReadVector(&m[k], kMaxResumeVectorElements) ||
        !reader.ReadVector(&v[k], kMaxResumeVectorElements)) {
      return corrupt;
    }
  }

  const int64_t num_nodes = graph_->num_nodes();
  const uint64_t d = static_cast<uint64_t>(config_.embedding_dim);
  uint64_t target_count = 0;
  if (!reader.ReadScalar(&target_count) || target_count > kMaxResumeEntries) {
    return corrupt;
  }
  std::unordered_map<graph::NodeId, TargetState> states;
  states.reserve(static_cast<size_t>(target_count));
  for (uint64_t i = 0; i < target_count; ++i) {
    int32_t node = -1;
    if (!reader.ReadScalar(&node) || node < 0 || node >= num_nodes ||
        states.count(node) != 0) {
      return corrupt;
    }
    TargetState state;
    state.node = node;
    state.wide.target = node;
    uint32_t deep_count = 0;
    if (!reader.ReadVector(&state.wide.nodes, kMaxResumeVectorElements) ||
        !reader.ReadVector(&state.wide.edge_types, kMaxResumeVectorElements) ||
        state.wide.edge_types.size() != state.wide.nodes.size() ||
        !reader.ReadScalar(&deep_count) || deep_count > kMaxResumeEntries) {
      return corrupt;
    }
    for (graph::NodeId neighbor : state.wide.nodes) {
      if (neighbor < 0 || neighbor >= num_nodes) return corrupt;
    }
    state.deeps.resize(deep_count);
    for (DeepNeighborState& deep : state.deeps) {
      deep.target = node;
      uint32_t edge_count = 0;
      if (!reader.ReadVector(&deep.nodes, kMaxResumeVectorElements) ||
          !reader.ReadScalar(&edge_count) ||
          edge_count != deep.nodes.size()) {
        return corrupt;
      }
      for (graph::NodeId neighbor : deep.nodes) {
        if (neighbor < 0 || neighbor >= num_nodes) return corrupt;
      }
      deep.edges.resize(edge_count);
      for (DeepEdgeSlot& slot : deep.edges) {
        if (!reader.ReadScalar(&slot.edge_type) ||
            !reader.ReadVector(&slot.relay, kMaxResumeVectorElements) ||
            (!slot.relay.empty() && slot.relay.size() != d)) {
          return corrupt;
        }
      }
    }
    states.emplace(node, std::move(state));
  }

  std::vector<AttentionTracker::Snapshot> wide_entries, deep_entries;
  if (!ReadTrackerSnapshots(reader, &wide_entries) ||
      !ReadTrackerSnapshots(reader, &deep_entries) || !reader.AtEnd()) {
    return corrupt;
  }

  // Everything parsed and validated; the optimizer restore is the only
  // remaining fallible step, so no member is touched until it succeeds.
  WIDEN_RETURN_IF_ERROR(
      optimizer_->RestoreState(adam_step, std::move(m), std::move(v)));
  current_epoch_ = epoch;
  rng_.RestoreState(rng_state);
  target_states_ = std::move(states);
  wide_tracker_.Restore(wide_entries);
  deep_tracker_.Restore(deep_entries);
  return Status::OK();
}

std::pair<int64_t, double> WidenModel::NeighborSetSizes(
    graph::NodeId node) const {
  auto it = target_states_.find(node);
  if (it == target_states_.end()) return {-1, -1.0};
  const TargetState& state = it->second;
  double deep_total = 0.0;
  for (const DeepNeighborState& deep : state.deeps) {
    deep_total += static_cast<double>(deep.size());
  }
  const double mean_deep =
      state.deeps.empty()
          ? 0.0
          : deep_total / static_cast<double>(state.deeps.size());
  return {static_cast<int64_t>(state.wide.size()), mean_deep};
}

}  // namespace widen::core
