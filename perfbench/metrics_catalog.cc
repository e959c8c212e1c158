#include "metrics_catalog.h"

#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"train",
       "Fig. 4 on ACM (2,048 nodes, d=64, 10 epochs, 1 kernel thread): "
       "encoder, autograd and optimizer do the work; net and storage do "
       "none"},
      {"serve_hot",
       "wire Embed/Predict, Zipf node draws over a warm store: net decode "
       "and reply, admission, batcher queue and linger dominate; the "
       "encoder is nearly idle"},
      {"ooc_sweep",
       "600k-node 16-shard checksummed store, shard-ordered wide sampling "
       "through the halo cache: storage and sampling do all the work"},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<MetricSpec>& Metrics() {
  constexpr MetricKind E = MetricKind::kEndToEnd;
  constexpr MetricKind L = MetricKind::kPerLayer;
  static const std::vector<MetricSpec> kMetrics = {
      // ---- end to end: every workload reports every one -----------------
      {"setup_s", "s", "lower", E, 0.25,
       "median of repeated set-ups: data generation, model/checkpoint "
       "creation, store build and open (serve_hot: + server start and "
       "store warm-up)"},
      {"peak_rss_mb", "MB", "lower", E, 0.15,
       "process VmHWM (serve_hot: after the nominal phase, before the "
       "saturated phase)"},
      {"ok_frac", "frac", "higher", E, 0.02,
       "1 - failed/attempted: train epochs, wire requests at the nominal "
       "rate, swept nodes"},
      {"p50_ms", "ms", "lower", E, 0.25,
       "median of the unit operation: train epoch (Fig. 4a), wire "
       "Embed/Predict from due time at 16k/s; ooc_sweep: median over "
       "whole passes of the mean 1,024-node chunk time"},
      {"tail_ms", "ms", "lower", E, 0.25,
       "same operation: median over 200-sample windows (ooc_sweep: whole "
       "passes) of each window's p95; one window: p99..p75 rule"},
      {"work_per_s", "1/s", "higher", E, 0.25,
       "train: node encodes per second over whole Train() calls; "
       "serve_hot: OK replies per second with 256 requests in flight, "
       "median of 250 ms slices; "
       "ooc_sweep: nodes swept per second, median over whole passes"},
      // ---- per layer: train --------------------------------------------
      {"sampling.target_states_ms", "ms", "lower", L, 0,
       "work_per_s on train (the up-front SampleTargetState over V)"},
      {"encoder.supervised_fwd_ms", "ms", "lower", L, 0,
       "p50_ms on train (taped EncodeTarget of the training targets, per "
       "epoch)"},
      {"encoder.refresh_fwd_ms", "ms", "lower", L, 0,
       "p50_ms on train (tape-free EncodeTarget of the other nodes, per "
       "epoch)"},
      {"loss.head_ms", "ms", "lower", L, 0,
       "p50_ms on train (ConcatRows, MatMul, SoftmaxCrossEntropy, per "
       "epoch)"},
      {"autograd.backward_ms", "ms", "lower", L, 0,
       "p50_ms on train (Tensor::Backward, per epoch)"},
      {"optimizer.step_ms", "ms", "lower", L, 0,
       "p50_ms on train (ZeroGrad, Adam::Step, per epoch)"},
      {"downsampling.ms", "ms", "lower", L, 0,
       "p50_ms on train (KL gate, ShrinkWideSet, PruneDeepState, per "
       "epoch)"},
      {"downsampling.drops", "count", "lower", L, 0,
       "p50_ms and train.micro_f1 on train (drops over the 10 epochs)"},
      {"tensor.matmul_calls", "count", "lower", L, 0,
       "p50_ms on train (MatMul calls per epoch)"},
      {"tensor.matmul_gflops", "GFLOP/s", "higher", L, 0,
       "p50_ms on train (achieved MatMul rate)"},
      {"tensor.allocs", "count", "lower", L, 0,
       "p50_ms on train (tensor allocations per epoch)"},
      {"tensor.alloc_mb", "MB", "lower", L, 0,
       "p50_ms on train (tensor bytes allocated per epoch)"},
      {"tensor.parallel_for_calls", "count", "lower", L, 0,
       "p50_ms on train (ParallelForGrid dispatches per epoch)"},
      {"train.traced_epoch_ms", "ms", "lower", L, 0,
       "the traced epoch's wall time, beside the untraced p50_ms on train"},
      {"train.micro_f1", "frac", "higher", L, 0,
       "Fig. 4(b): test micro-F1 after 10 epochs on train"},
      // ---- per layer: serving -------------------------------------------
      {"net.wire_us.p50", "us", "lower", L, 0,
       "p50_ms on serve_hot (client RTT minus server admitted->replied)"},
      {"net.wire_us.p99", "us", "lower", L, 0, "tail_ms on serve_hot"},
      {"net.overload_rejections", "count", "lower", L, 0,
       "ok_frac on serve_hot"},
      {"net.ingest_ms.p50", "ms", "lower", L, 0,
       "write path, no end-to-end metric (serve_hot traced write phase)"},
      {"net.ingest_ms.p99", "ms", "lower", L, 0,
       "write path, no end-to-end metric (serve_hot traced write phase)"},
      {"batcher.expired", "count", "lower", L, 0, "ok_frac on serve_hot"},
      {"batcher.queue_us.p50", "us", "lower", L, 0,
       "p50_ms on serve_hot (admission to batch formed: queue + linger)"},
      {"batcher.queue_us.p99", "us", "lower", L, 0, "tail_ms on serve_hot"},
      {"batcher.batch_nodes_mean", "count", "higher", L, 0,
       "work_per_s (saturated throughput) on serve_hot"},
      {"session.embed_us.p50", "us", "lower", L, 0,
       "p50_ms on serve_hot (session Embed wall time per batch)"},
      {"session.embed_us.p99", "us", "lower", L, 0, "tail_ms on serve_hot"},
      {"session.cold_frac", "frac", "lower", L, 0,
       "write path, no end-to-end metric (serve_hot traced write phase: "
       "cold rows / rows served)"},
      {"store.hit_ratio", "frac", "higher", L, 0, "p50_ms on serve_hot"},
      {"store.evictions", "count", "lower", L, 0,
       "write path, no end-to-end metric (serve_hot traced write phase)"},
      {"store.invalidated_per_ingest", "count", "lower", L, 0,
       "write path, no end-to-end metric (serve_hot traced write phase)"},
      {"encoder.cold_node_us", "us", "lower", L, 0,
       "setup_s on serve_hot, whose warm-up is cold encodes (direct "
       "EncodeColdMean)"},
      {"delta.ingest_us.p50", "us", "lower", L, 0,
       "write path: net.ingest_ms.p50 (direct InferenceSession::Ingest)"},
      {"delta.ingest_us.p99", "us", "lower", L, 0,
       "write path: net.ingest_ms.p99"},
      {"gen.late_ms_p99", "ms", "lower", L, 0,
       "tail_ms on serve_hot (generator lateness is charged to latency)"},
      // ---- per layer: out of core ---------------------------------------
      {"storage.build_s", "s", "lower", L, 0, "setup_s on ooc_sweep"},
      {"storage.open_s", "s", "lower", L, 0, "setup_s on ooc_sweep"},
      {"sampling.wide_us_per_node", "us", "lower", L, 0,
       "work_per_s on ooc_sweep"},
      {"halo.hit_ratio", "frac", "higher", L, 0, "work_per_s on ooc_sweep"},
      {"halo.miss_fill_us", "us", "lower", L, 0, "work_per_s on ooc_sweep"},
      {"storage.edge_cut_frac", "frac", "lower", L, 0,
       "work_per_s on ooc_sweep"},
      {"storage.resident_mb", "MB", "lower", L, 0,
       "peak_rss_mb on ooc_sweep (page-cache warmth of the mappings)"},
      {"storage.full_evictions", "count", "lower", L, 0,
       "peak_rss_mb on ooc_sweep (RSS safety-net firings)"},
      // ---- per layer: every workload -------------------------------------
      {"trace.overhead_frac", "frac", "lower", L, 0,
       "traced vs untraced end-to-end time of the same work"},
      {"trace.unattributed_frac", "frac", "lower", L, 0,
       "1 - sum of layer self time / traced end-to-end time"},
      {"layer.serve.net.self_frac", "frac", "lower", L, 0,
       "p50_ms on serve_hot"},
      {"layer.serve.batcher.self_frac", "frac", "lower", L, 0,
       "p50_ms on serve_hot"},
      {"layer.serve.session.self_frac", "frac", "lower", L, 0,
       "p50_ms on serve_hot"},
      {"layer.core.encoder.self_frac", "frac", "lower", L, 0,
       "p50_ms on train"},
      {"layer.core.downsampling.self_frac", "frac", "lower", L, 0,
       "p50_ms on train"},
      {"layer.sampling.self_frac", "frac", "lower", L, 0,
       "work_per_s on train and ooc_sweep"},
      {"layer.tensor.self_frac", "frac", "lower", L, 0, "p50_ms on train"},
      {"layer.storage.self_frac", "frac", "lower", L, 0,
       "work_per_s on ooc_sweep"},
  };
  return kMetrics;
}

const MetricSpec* FindMetric(const std::string& name) {
  for (const MetricSpec& m : Metrics()) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

void WorkloadResult::Set(const std::string& name, double value,
                         int64_t samples) {
  WIDEN_CHECK(FindMetric(name) != nullptr) << "unknown metric " << name;
  metrics[name] = MetricValue{value, samples};
}

void WorkloadResult::Fail(const std::string& reason) {
  correct = false;
  failures.push_back(reason);
}

std::string SpecJson() {
  std::ostringstream out;
  out << "  \"workloads\": [\n";
  const auto& workloads = Workloads();
  for (size_t i = 0; i < workloads.size(); ++i) {
    out << "    {\"name\": \"" << workloads[i].name << "\", \"why\": \""
        << workloads[i].why << "\"}" << (i + 1 < workloads.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n";
  for (MetricKind kind : {MetricKind::kEndToEnd, MetricKind::kPerLayer}) {
    out << (kind == MetricKind::kEndToEnd ? "  \"end_to_end\": [\n"
                                          : "  \"per_layer\": [\n");
    std::vector<const MetricSpec*> rows;
    for (const MetricSpec& m : Metrics()) {
      if (m.kind == kind) rows.push_back(&m);
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"name\": \"" << rows[i]->name << "\", \"unit\": \""
          << rows[i]->unit << "\", \"better\": \"" << rows[i]->better << "\"";
      if (kind == MetricKind::kEndToEnd) {
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%g", rows[i]->bound);
        out << ", \"bound\": " << bound;
      }
      out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << (kind == MetricKind::kEndToEnd ? "  ],\n" : "  ]\n");
  }
  return out.str();
}

}  // namespace perfbench
