// `train`: the Fig. 4 protocol. ACM at scale 1.0, WIDEN at d = 64 for 10
// epochs on one kernel thread; the untraced run times whole Train() calls,
// the traced run drives one fit through the encoder's public functions with
// a span around each call.

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/downsampling.h"
#include "core/encoder.h"
#include "core/kl_trigger.h"
#include "core/widen_model.h"
#include "datasets/acm.h"
#include "obs/memprof.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "spans.h"
#include "tensor/inference.h"
#include "tensor/kernel_context.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "train/metrics.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace T = widen::tensor;
using widen::Rng;
using widen::StopWatch;
using widen::graph::NodeId;

constexpr int64_t kEpochs = 10;  // fixed by the Fig. 4 protocol
constexpr size_t kMinFits = 3;

// WidenConfigFor("ACM") of the figure harnesses at their full-profile
// d = 64, pinned to one kernel thread: at 2 and 4 threads the same epoch is
// slower and spreads wider (FINDINGS.md).
widen::core::WidenConfig Fig4Config() {
  widen::core::WidenConfig config;
  config.embedding_dim = 64;
  config.learning_rate = 1e-2f;
  config.batch_size = 32;
  config.max_epochs = kEpochs;
  config.l2_regularization = 0.2f;
  config.seed = 42;
  config.num_threads = 1;
  return config;
}

// Dataset and model of one fit; the model points into the dataset.
struct Setup {
  std::unique_ptr<widen::datasets::Dataset> data;
  std::unique_ptr<widen::core::WidenModel> model;
  double seconds = 0.0;
};

Setup MakeSetup(uint64_t seed) {
  Setup setup;
  StopWatch watch;
  widen::datasets::DatasetOptions options;
  options.scale = 1.0;
  options.seed = seed;
  auto data = widen::datasets::MakeAcm(options);
  WIDEN_CHECK(data.ok()) << data.status().ToString();
  setup.data =
      std::make_unique<widen::datasets::Dataset>(std::move(data).value());
  auto model = widen::core::WidenModel::Create(&setup.data->graph,
                                               Fig4Config());
  WIDEN_CHECK(model.ok()) << model.status().ToString();
  setup.model = std::move(model).value();
  setup.seconds = watch.ElapsedSeconds();
  return setup;
}

uint64_t Fnv(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001B3ull;
  }
  return hash;
}

struct FitRun {
  std::vector<double> epoch_s;
  std::vector<double> losses;
  double fit_s = 0.0;
  double micro_f1 = 0.0;
  uint64_t digest = 0;  // per-epoch losses + micro-F1, bitwise
};

double TestMicroF1(Setup& setup) {
  const auto& test = setup.data->split.test;
  std::vector<int32_t> predicted =
      setup.model->Predict(setup.data->graph, test);
  std::vector<int32_t> gold;
  gold.reserve(test.size());
  for (NodeId v : test) gold.push_back(setup.data->graph.label(v));
  return widen::train::MicroF1(predicted, gold);
}

FitRun Fit(Setup& setup) {
  FitRun run;
  StopWatch watch;
  auto report = setup.model->Train(
      setup.data->split.train, [&run](const widen::core::WidenEpochLog& log) {
        run.epoch_s.push_back(log.seconds);
        run.losses.push_back(log.mean_loss);
      });
  run.fit_s = watch.ElapsedSeconds();
  WIDEN_CHECK(report.ok()) << report.status().ToString();
  run.micro_f1 = TestMicroF1(setup);
  uint64_t digest = 0xCBF29CE484222325ull;
  for (double loss : run.losses) digest = Fnv(digest, &loss, sizeof(loss));
  run.digest = Fnv(digest, &run.micro_f1, sizeof(run.micro_f1));
  return run;
}

// ---- traced fit -----------------------------------------------------------

// The stateful embedding store of Algorithm 3, as WidenModel keeps it.
class CacheReps final : public widen::core::RepSource {
 public:
  CacheReps(int64_t num_nodes, int64_t dim)
      : dim_(dim),
        data_(static_cast<size_t>(num_nodes * dim), 0.0f),
        valid_(static_cast<size_t>(num_nodes), false) {}

  const float* Lookup(NodeId v) const override {
    return valid_[static_cast<size_t>(v)] ? data_.data() + v * dim_ : nullptr;
  }
  void Store(NodeId v, const T::Tensor& row) {
    std::memcpy(data_.data() + v * dim_, row.data(),
                static_cast<size_t>(dim_) * sizeof(float));
    valid_[static_cast<size_t>(v)] = true;
  }

 private:
  int64_t dim_;
  std::vector<float> data_;
  std::vector<bool> valid_;
};

struct TracedFit {
  std::vector<double> losses;
  std::vector<double> epoch_ms;
  double target_states_ms = 0.0;
  int64_t drops = 0;
};

// Algorithm 1-2 with the Eq. (9) gate, as WidenModel::MaybeDownsample
// applies them under the default (attentive, relay-edge) configuration.
int64_t Downsample(const widen::core::WidenConfig& config,
                   const widen::core::EncoderParams& params,
                   widen::core::TargetState& state,
                   const widen::core::EncodeResult& result,
                   widen::core::AttentionTracker& wide_tracker,
                   widen::core::AttentionTracker& deep_tracker) {
  int64_t drops = 0;
  if (static_cast<int64_t>(state.wide.size()) > config.wide_lower_bound) {
    const double kl = wide_tracker.UpdateAndComputeKl(
        state.node, widen::core::HashNodeSequence(state.wide.nodes),
        result.wide_attention);
    if (kl < static_cast<double>(config.wide_kl_threshold)) {
      widen::core::ShrinkWideSet(state.wide, result.wide_attention);
      ++drops;
    }
  }
  for (size_t phi = 0; phi < state.deeps.size(); ++phi) {
    widen::core::DeepNeighborState& deep = state.deeps[phi];
    if (static_cast<int64_t>(deep.size()) <= config.deep_lower_bound) continue;
    const int64_t key =
        static_cast<int64_t>(state.node) * config.num_deep_walks +
        static_cast<int64_t>(phi);
    const double kl = deep_tracker.UpdateAndComputeKl(
        key, widen::core::HashNodeSequence(deep.nodes),
        result.deep_attention[phi]);
    if (kl < static_cast<double>(config.deep_kl_threshold)) {
      widen::core::PruneDeepState(deep, result.deep_attention[phi],
                                  result.deep_pack_values[phi], *params.edges,
                                  !config.disable_relay_edges);
      ++drops;
    }
  }
  return drops;
}

// One fit (Algorithm 3) driven through the public encoder, loss, autograd,
// optimizer and downsampling functions in the order WidenModel::Train calls
// them, with a span around each call. The profiler counts tensor work of the
// epochs only.
TracedFit RunTracedFit(const widen::datasets::Dataset& data,
                       const widen::core::WidenConfig& config,
                       Tracer& tracer) {
  const widen::graph::HeteroGraph& graph = data.graph;
  const widen::graph::HeteroGraphView view(graph);
  const int64_t n = graph.num_nodes();
  Rng rng(config.seed);
  widen::core::EncoderDims dims;
  dims.feature_dim = graph.feature_dim();
  dims.num_edge_types = graph.schema().num_edge_types();
  dims.num_node_types = graph.schema().num_node_types();
  dims.embedding_dim = config.embedding_dim;
  dims.num_classes = graph.num_classes();
  widen::core::EncoderParams params =
      widen::core::EncoderParams::CreateInitialized(dims, rng);
  T::Adam optimizer(config.learning_rate, 0.9f, 0.999f, 1e-8f,
                    config.l2_regularization);
  optimizer.AddParameters(params.All());
  CacheReps reps(n, config.embedding_dim);
  widen::core::AttentionTracker wide_tracker, deep_tracker;

  TracedFit fit;
  Tracer::Scope fit_span(tracer, nullptr, "fit");
  std::vector<widen::core::TargetState> states;
  states.reserve(static_cast<size_t>(n));
  {
    const int64_t start = NowNs();
    Tracer::Scope span(tracer, "sampling", "SampleTargetState");
    for (NodeId v = 0; v < n; ++v) {
      states.push_back(widen::core::SampleTargetState(view, v, config, rng));
    }
    fit.target_states_ms = static_cast<double>(NowNs() - start) / 1e6;
  }
  const std::vector<NodeId>& train_nodes = data.split.train;
  std::vector<bool> in_train(static_cast<size_t>(n), false);
  for (NodeId v : train_nodes) in_train[static_cast<size_t>(v)] = true;
  std::vector<NodeId> refresh_canonical;
  for (NodeId v = 0; v < n; ++v) {
    if (!in_train[static_cast<size_t>(v)]) refresh_canonical.push_back(v);
  }

  widen::obs::Profiler::Get().Reset();
  widen::obs::ResetMemProf();
  widen::obs::Profiler::Get().Start();
  for (int64_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    const int64_t epoch_start = NowNs();
    Tracer::Scope epoch_span(tracer, nullptr, "epoch");
    double loss_sum = 0.0;
    int64_t batches = 0;
    std::vector<NodeId> order = train_nodes;
    rng.Shuffle(order);
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(config.batch_size)) {
      const size_t end = std::min(
          order.size(), begin + static_cast<size_t>(config.batch_size));
      std::vector<T::Tensor> embeddings;
      std::vector<int32_t> labels;
      for (size_t i = begin; i < end; ++i) {
        const NodeId v = order[i];
        widen::core::TargetState& state = states[static_cast<size_t>(v)];
        widen::core::EncodeResult result;
        {
          Tracer::Scope span(tracer, "core.encoder", "EncodeTarget.taped");
          result = widen::core::EncodeTarget(view, params, config, state,
                                             &reps, true, rng);
        }
        embeddings.push_back(result.embedding);
        labels.push_back(graph.label(v));
        if (epoch >= 1) {
          Tracer::Scope span(tracer, "core.downsampling", "Downsample");
          fit.drops += Downsample(config, params, state, result, wide_tracker,
                                  deep_tracker);
        }
        reps.Store(v, result.embedding.DetachedCopy());
      }
      T::Tensor loss;
      {
        Tracer::Scope span(tracer, "tensor", "loss.head");
        T::Tensor batch = T::ConcatRows(embeddings);
        T::Tensor logits = T::MatMul(batch, params.classifier);
        loss = T::SoftmaxCrossEntropy(logits, labels);
      }
      {
        Tracer::Scope span(tracer, "tensor", "optimizer.step");
        optimizer.ZeroGrad();
      }
      {
        Tracer::Scope span(tracer, "tensor", "autograd.backward");
        loss.Backward();
      }
      {
        Tracer::Scope span(tracer, "tensor", "optimizer.step");
        if (widen::obs::MetricsEnabled()) optimizer.ClipGradNorm(1e30);
        optimizer.Step();
      }
      loss_sum += loss.item();
      ++batches;
    }
    {
      T::NoGradScope no_grad;
      std::vector<NodeId> refresh = refresh_canonical;
      rng.Shuffle(refresh);
      for (NodeId v : refresh) {
        widen::core::TargetState& state = states[static_cast<size_t>(v)];
        widen::core::EncodeResult result;
        {
          Tracer::Scope span(tracer, "core.encoder", "EncodeTarget.refresh");
          result = widen::core::EncodeTarget(view, params, config, state,
                                             &reps, true, rng);
        }
        if (epoch >= 1) {
          Tracer::Scope span(tracer, "core.downsampling", "Downsample");
          fit.drops += Downsample(config, params, state, result, wide_tracker,
                                  deep_tracker);
        }
        reps.Store(v, result.embedding);
      }
    }
    fit.losses.push_back(batches > 0 ? loss_sum / static_cast<double>(batches)
                                     : 0.0);
    fit.epoch_ms.push_back(static_cast<double>(NowNs() - epoch_start) / 1e6);
  }
  widen::obs::Profiler::Get().Stop();

  // The final coherent refresh Train() ends with.
  T::InferenceScope inference;
  Rng refresh_rng(config.seed ^ 0x2EF2E54ULL);
  for (NodeId v = 0; v < n; ++v) {
    widen::core::TargetState state;
    {
      Tracer::Scope span(tracer, "sampling", "SampleTargetState.refresh");
      state = widen::core::SampleTargetState(view, v, config, refresh_rng);
    }
    Tracer::Scope span(tracer, "core.encoder", "EncodeTarget.final");
    widen::core::EncodeResult result = widen::core::EncodeTarget(
        view, params, config, state, &reps, false, rng);
    reps.Store(v, result.embedding);
  }
  return fit;
}

// ParallelForGrid dispatches (pooled and inline) across profiler phases.
int64_t ParallelForCalls() {
  auto report = widen::Json::Parse(widen::obs::Profiler::Get().DumpJson());
  WIDEN_CHECK(report.ok()) << report.status().ToString();
  int64_t calls = 0;
  if (const widen::Json* phases = report->Find("phases")) {
    for (const widen::Json& phase : phases->array_items()) {
      for (const char* key : {"parallel_calls", "parallel_inline"}) {
        if (const widen::Json* v = phase.Find(key)) calls += v->int_value();
      }
    }
  }
  return calls;
}

void Describe(const Setup& setup) {
  Provenance("train.nodes", static_cast<double>(setup.data->graph.num_nodes()));
  Provenance("train.targets",
             static_cast<double>(setup.data->split.train.size()));
  Provenance("train.test_nodes",
             static_cast<double>(setup.data->split.test.size()));
  Provenance("train.embedding_dim", 64);
  Provenance("train.epochs_per_fit", static_cast<double>(kEpochs));
  Provenance("kernel_threads",
             static_cast<double>(T::KernelContext::Get().num_threads()));
}

WorkloadResult RunTrainTraced(const RunArgs& args) {
  WorkloadResult result;
  Setup setup = MakeSetup(args.seed);
  Describe(setup);
  // Untraced reference fit: the epoch time tracing is priced against, and
  // the Fig. 4(b) F1.
  const FitRun untraced = Fit(setup);
  Tracer tracer(true);
  StopWatch traced_watch;
  const TracedFit traced =
      RunTracedFit(*setup.data, Fig4Config(), tracer);
  const double traced_fit_s = traced_watch.ElapsedSeconds();
  const bool same_losses = traced.losses == untraced.losses;
  Provenance("train.traced_losses_match_train", same_losses ? "yes" : "no");

  const double epochs = static_cast<double>(traced.epoch_ms.size());
  const auto n = static_cast<int64_t>(traced.epoch_ms.size());
  const widen::obs::Profiler::OpTotals matmul =
      widen::obs::Profiler::Get().Totals(widen::obs::ProfOp::kMatMul);
  const widen::obs::MemProfPhaseStats alloc =
      widen::obs::TakeMemProfSnapshot().Total();
  const double untraced_epoch_ms = Percentile(untraced.epoch_s, 0.5) * 1e3;
  const double traced_epoch_ms = Percentile(traced.epoch_ms, 0.5);

  result.Set("sampling.target_states_ms", traced.target_states_ms, 1);
  result.Set("encoder.supervised_fwd_ms",
             tracer.TotalMs("EncodeTarget.taped") / epochs, n);
  result.Set("encoder.refresh_fwd_ms",
             tracer.TotalMs("EncodeTarget.refresh") / epochs, n);
  result.Set("loss.head_ms", tracer.TotalMs("loss.head") / epochs, n);
  result.Set("autograd.backward_ms",
             tracer.TotalMs("autograd.backward") / epochs, n);
  result.Set("optimizer.step_ms", tracer.TotalMs("optimizer.step") / epochs, n);
  result.Set("downsampling.ms", tracer.TotalMs("Downsample") / epochs, n);
  result.Set("downsampling.drops", static_cast<double>(traced.drops));
  result.Set("tensor.matmul_calls", static_cast<double>(matmul.calls) / epochs);
  result.Set("tensor.matmul_gflops",
             matmul.wall_ns > 0 ? static_cast<double>(matmul.flops) /
                                      static_cast<double>(matmul.wall_ns)
                                : 0.0);
  result.Set("tensor.allocs",
             static_cast<double>(alloc.tensor_allocs) / epochs);
  result.Set("tensor.alloc_mb",
             static_cast<double>(alloc.tensor_bytes) / (1 << 20) / epochs);
  result.Set("tensor.parallel_for_calls",
             static_cast<double>(ParallelForCalls()) / epochs);
  result.Set("train.traced_epoch_ms", traced_epoch_ms, n);
  result.Set("train.micro_f1", untraced.micro_f1);
  result.Set("trace.overhead_frac", traced_epoch_ms / untraced_epoch_ms - 1.0);
  result.Set("trace.unattributed_frac", tracer.UnattributedFrac());
  for (const char* layer :
       {"core.encoder", "core.downsampling", "sampling", "tensor"}) {
    result.Set(std::string("layer.") + layer + ".self_frac",
               tracer.SelfFrac(layer));
  }
  Provenance("train.traced_fit_s", traced_fit_s);
  Provenance("train.untraced_fit_s", untraced.fit_s);
  result.attempted = static_cast<int64_t>(untraced.epoch_s.size()) +
                     static_cast<int64_t>(traced.epoch_ms.size());
  const widen::Status written = tracer.WriteChromeTrace(TracePath(args));
  if (!written.ok()) result.Fail("trace write: " + written.ToString());
  return result;
}

}  // namespace

WorkloadResult RunTrain(const RunArgs& args) {
  if (args.trace) return RunTrainTraced(args);
  WorkloadResult result;
  // Set-up takes milliseconds here, so it is sampled before, between and
  // after the fits, and the median taken over all of them.
  std::vector<double> setup_s;
  auto sample_setups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      setup_s.push_back(MakeSetup(args.seed).seconds);
    }
  };
  sample_setups(4);
  // Fits repeat until the measured phase has lasted --seconds, and at least
  // kMinFits times: 30 epochs steady the median against host drift, and the
  // determinism check needs a pair to compare.
  std::vector<FitRun> fits;
  int64_t num_nodes = 0;
  StopWatch phase;
  while (fits.size() < kMinFits || phase.ElapsedSeconds() < args.seconds) {
    if (!fits.empty()) sample_setups(4);
    Setup setup = MakeSetup(args.seed);
    setup_s.push_back(setup.seconds);
    if (fits.empty()) Describe(setup);
    num_nodes = setup.data->graph.num_nodes();
    fits.push_back(Fit(setup));
  }
  sample_setups(4);

  std::vector<double> epoch_ms, fit_s, encodes_per_s;
  for (const FitRun& fit : fits) {
    for (double s : fit.epoch_s) epoch_ms.push_back(s * 1e3);
    fit_s.push_back(fit.fit_s);
    encodes_per_s.push_back(static_cast<double>(num_nodes * kEpochs) /
                            fit.fit_s);
    if (fit.digest != fits.front().digest) {
      result.Fail("train: loss/F1 digest differs between repeated fits");
    }
    result.attempted += kEpochs;
    result.failed += kEpochs - static_cast<int64_t>(fit.epoch_s.size());
  }
  const TimingSummary epochs = Summarize(epoch_ms);
  result.Set("setup_s", Percentile(setup_s, 0.5),
             static_cast<int64_t>(setup_s.size()));
  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("ok_frac", 1.0 - static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted),
             result.attempted);
  result.Set("p50_ms", epochs.p50, static_cast<int64_t>(epochs.n));
  result.Set("tail_ms", epochs.tail, static_cast<int64_t>(epochs.n));
  result.Set("work_per_s", Percentile(encodes_per_s, 0.5),
             static_cast<int64_t>(fits.size()));
  Provenance("train.epoch_s", epochs.p50 / 1e3);
  Provenance("train.tail_quantile", epochs.tail_q);
  Provenance("train.fit_s", Percentile(fit_s, 0.5));
  Provenance("train.micro_f1", fits.front().micro_f1);
  Provenance("train.fits", static_cast<double>(fits.size()));
  return result;
}

}  // namespace perfbench
