// WIDEN: the wide and deep message passing network (§3 of the paper).
//
// Inductive by construction: node representations are projections of raw
// features (v_t = x_t G^node, §2 "Embedding Initialization"), so unseen
// nodes are embedded by the trained parameters against any graph that shares
// the schema and feature space — the full graph at inductive test time, even
// when training used a subgraph.

#ifndef WIDEN_CORE_WIDEN_MODEL_H_
#define WIDEN_CORE_WIDEN_MODEL_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/downsampling.h"
#include "core/encoder.h"
#include "core/kl_trigger.h"
#include "core/message_pack.h"
#include "core/widen_config.h"
#include "graph/graph_view.h"
#include "graph/hetero_graph.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/status.h"

namespace widen::core {

/// Per-epoch training telemetry (drives the Fig. 4/5 efficiency harnesses).
struct WidenEpochLog {
  int64_t epoch = 0;
  double mean_loss = 0.0;
  double seconds = 0.0;
  int64_t wide_drops = 0;  // Algorithm 1 invocations this epoch
  int64_t deep_drops = 0;  // Algorithm 2 invocations this epoch
  double mean_wide_size = 0.0;
  double mean_deep_size = 0.0;
};

struct WidenTrainReport {
  std::vector<WidenEpochLog> epochs;
  double total_seconds = 0.0;
};

/// The WIDEN model: parameters + persistent per-target neighbor state.
class WidenModel {
 public:
  /// `graph` must outlive the model and carry features + labels.
  static StatusOr<std::unique_ptr<WidenModel>> Create(
      const graph::HeteroGraph* graph, const WidenConfig& config);

  WidenModel(const WidenModel&) = delete;
  WidenModel& operator=(const WidenModel&) = delete;

  /// Algorithm 3: semi-supervised training on `train_nodes` (must be labeled
  /// nodes of the training graph). Neighbor sets are sampled once up front
  /// (line 3) and then shrunk by the active downsampling machinery.
  /// `epoch_observer`, if set, fires after every epoch (the epoch counter
  /// has already advanced when it runs, so a checkpoint taken inside the
  /// observer records the completed-epoch count). Runs `max_epochs` MORE
  /// epochs from the current counter.
  StatusOr<WidenTrainReport> Train(
      const std::vector<graph::NodeId>& train_nodes,
      const std::function<void(const WidenEpochLog&)>& epoch_observer = {});

  /// Same loop, but trains until the completed-epoch counter reaches
  /// `target_epoch` (no epochs if already there). This is the resume entry
  /// point: restore a checkpoint, then TrainUntil the original target.
  StatusOr<WidenTrainReport> TrainUntil(
      int64_t target_epoch, const std::vector<graph::NodeId>& train_nodes,
      const std::function<void(const WidenEpochLog&)>& epoch_observer = {});

  /// Completed training epochs (across Train/TrainUntil calls).
  int64_t current_epoch() const { return current_epoch_; }

  /// Unsupervised alternative to Train() (§3.4 notes WIDEN "can be
  /// optimized for different downstream tasks"): a skip-gram-with-negative-
  /// sampling objective over random-walk co-occurrence, requiring no labels.
  /// Useful for link prediction and for pre-training on unlabeled graphs.
  /// `walk_length`/`window`/`negatives` follow DeepWalk conventions.
  StatusOr<WidenTrainReport> TrainUnsupervised(
      int64_t walk_length = 8, int64_t window = 3, int64_t negatives = 4,
      const std::function<void(const WidenEpochLog&)>& epoch_observer = {});

  /// Embeds `nodes` of `graph` with fresh neighbor samples (no downsampling,
  /// no tape). Returns [nodes.size(), d]. Pass a different graph than the
  /// training one for inductive inference; feature dimension and schema must
  /// match.
  tensor::Tensor EmbedNodes(const graph::HeteroGraph& graph,
                            const std::vector<graph::NodeId>& nodes);

  /// Class predictions via the trained classifier head C.
  std::vector<int32_t> Predict(const graph::HeteroGraph& graph,
                               const std::vector<graph::NodeId>& nodes);

  const WidenConfig& config() const { return config_; }
  std::vector<tensor::Tensor> Parameters() const;
  int64_t TotalParameterCount() const;

  /// Copies the training graph's embedding store into `reps` ([N, d]) and
  /// `valid` ([N, 1], 0/1). Returns false when no store exists yet.
  /// Algorithm 3's output is exactly these representations, so checkpoints
  /// include them (core/checkpoint.h).
  bool ExportTrainingCache(tensor::Tensor* reps, tensor::Tensor* valid) const;
  /// Restores a store exported by ExportTrainingCache for the training
  /// graph. Shapes must match the graph and embedding dimension.
  Status ImportTrainingCache(const tensor::Tensor& reps,
                             const tensor::Tensor& valid);

  /// Seeds `graph`'s embedding store with explicit rows: `reps` is [N, d],
  /// `valid` is [N, 1] with nonzero marking rows to serve. EmbedNodes on
  /// `graph` then reads valid rows directly (no warm-up refresh) and treats
  /// the rest as cold. This is how serving parity is tested: seed the model
  /// with the exact store a serving session carries and compare outputs.
  Status SeedCache(const graph::HeteroGraph& graph, const tensor::Tensor& reps,
                   const tensor::Tensor& valid);

  /// Routes neighborhood sampling for the TRAINING graph through `view` —
  /// e.g. a storage::ShardedGraphView over the mmap'd shard store — instead
  /// of the in-RAM graph. Only topology traversal moves (features, labels,
  /// and the embedding store still come from the training graph); since a
  /// conforming view presents byte-identical (neighbor, edge_type) spans,
  /// every RNG draw, and therefore training itself, is bitwise-unchanged.
  /// `view` must cover the same node-id space and outlive the model (or the
  /// next SetSamplingView call). nullptr restores the default.
  void SetSamplingView(const graph::GraphView* view) { sampling_view_ = view; }

  /// Current size of a training target's neighbor sets (tests/diagnostics).
  /// Returns {wide_size, mean_deep_size}; {-1, -1} if the node has no state.
  std::pair<int64_t, double> NeighborSetSizes(graph::NodeId node) const;

  /// Opaque serialization of everything Train() mutates besides parameters
  /// and the embedding store: epoch counter, RNG stream, Adam moments,
  /// per-target neighbor sets (with relay edges), and the KL attention
  /// histories. Together with the parameters and the exported cache this
  /// makes a resumed run bitwise-identical to an uninterrupted one (at
  /// num_threads=1; see DESIGN.md §8-9).
  std::string ExportResumeState() const;
  /// Restores a blob produced by ExportResumeState on a model created with
  /// the same config and graph. Corrupt or mismatched blobs leave a
  /// well-defined error, never partial UB (all bounds are checked).
  Status ImportResumeState(const std::string& blob);

 private:
  WidenModel(const graph::HeteroGraph* graph, const WidenConfig& config);

  // The per-target neighbor state and forward artifacts live in
  // core/encoder.h, shared with the serving path.
  using TargetState = core::TargetState;
  using ForwardResult = core::EncodeResult;

  /// Stateful node representations: each message passing step "replaces the
  /// original node embedding" (§3), so information propagates one hop
  /// further per epoch. Rows are detached values; invalid rows fall back to
  /// the fresh projection x G^node.
  struct EmbeddingCache {
    std::vector<float> data;
    std::vector<bool> valid;
  };

  TargetState SampleTargetState(const graph::HeteroGraph& graph,
                                graph::NodeId node, Rng& rng) const;
  /// `projections`: ProjectionTable(graph) for a tape-free pass, or
  /// nullptr (core::EncodeTarget).
  ForwardResult Forward(const graph::HeteroGraph& graph, TargetState& state,
                        bool keep_artifacts,
                        const tensor::Tensor* projections = nullptr);
  /// x G^node for every node of `graph` under the current parameters,
  /// computed once per tape-free sweep (G^node does not change within one).
  tensor::Tensor ProjectionTable(const graph::HeteroGraph& graph) const;
  EmbeddingCache& CacheFor(const graph::HeteroGraph& graph);
  /// Writes a detached embedding row back into the graph's cache.
  void StoreRep(const graph::HeteroGraph& graph, graph::NodeId node,
                const tensor::Tensor& row);
  /// Tape-free pass over all nodes of `graph` with fresh neighbor samples,
  /// populating its cache (inductive warm-up; §4.6 evaluation).
  void RefreshCache(const graph::HeteroGraph& graph, int64_t passes);
  /// Applies the downsampling policy to one target after its forward pass.
  void MaybeDownsample(TargetState& state, const ForwardResult& result,
                       WidenEpochLog& log);

  const graph::HeteroGraph* graph_;
  WidenConfig config_;
  Rng rng_;
  const graph::GraphView* sampling_view_ = nullptr;  // not owned

  // Parameters (shared encode path, core/encoder.h).
  EncoderParams params_;

  std::unique_ptr<tensor::Adam> optimizer_;

  // Training state. Embedding stores are keyed by HeteroGraph::uid(), a
  // process-unique identity — never by address, which the allocator can
  // reuse for a different graph after the first one dies.
  std::unordered_map<graph::NodeId, TargetState> target_states_;
  std::unordered_map<uint64_t, EmbeddingCache> caches_;
  AttentionTracker wide_tracker_;
  AttentionTracker deep_tracker_;
  int64_t current_epoch_ = 0;
};

}  // namespace widen::core

#endif  // WIDEN_CORE_WIDEN_MODEL_H_
