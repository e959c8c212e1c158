// `ooc_sweep`: storage at scale. scale_bench's 3-type spec is streamed to
// 600k nodes in 16 checksummed shards and opened with verification (three
// times: setup_s is the median), and each build is swept shard by shard:
// every node gets a SampleWideNeighbors draw through a ShardedGraphView
// whose halo cache serves the remote feature reads, and each finished shard
// is evicted. The sweep is timed in 1,024-node chunks and repeats whole
// passes over each build for a third of --seconds (at least one pass).
//
// Each chunk draws from its own RNG stream, so its digest (sampled ids and
// feature sums) depends only on the store and the chunk: chunks swept twice
// must agree, and so must a re-sweep with a fresh view at the end.

#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datasets/synthetic_stream.h"
#include "obs/memprof.h"
#include "sampling/neighbor_sampler.h"
#include "spans.h"
#include "storage/sharded_graph.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using widen::StopWatch;
using widen::graph::NodeId;

constexpr int64_t kNodes = 600'000;
constexpr int32_t kShards = 16;
constexpr int64_t kChunk = 1024;
constexpr int64_t kWideSample = 8;
constexpr int64_t kHaloRows = int64_t{1} << 15;
constexpr int kSetups = 3;
constexpr int64_t kMaxPasses = 32;  // all builds together, for reserving
constexpr int64_t kRecheckChunks = 48;
constexpr int64_t kTraceEvery = 8;
constexpr int64_t kTracedChunks = 192;

// scale_bench's sweep spec: three node types and three edge types shaped
// like the paper's Yelp setting.
widen::datasets::SyntheticGraphSpec ScaleSpec(int64_t total, uint64_t seed) {
  widen::datasets::SyntheticGraphSpec spec;
  spec.name = "scale";
  const int64_t papers = total * 6 / 10;
  const int64_t authors = total * 35 / 100;
  const int64_t venues = std::max<int64_t>(total - papers - authors, 1);
  spec.node_types = {{"paper", papers, true},
                     {"author", authors, false},
                     {"venue", venues, false}};
  spec.edge_types = {{"cites", "paper", "paper", 3.0, 0.8, {}},
                     {"writes", "author", "paper", 4.0, 0.7, {}},
                     {"published_in", "paper", "venue", 1.0, 0.9, {}}};
  spec.num_classes = 4;
  spec.feature_dim = 64;
  spec.feature_style = widen::datasets::FeatureStyle::kBagOfWords;
  spec.seed = MixSeed(seed, 0);
  return spec;
}

// Bytes the graph would occupy materialized in RAM (scale_bench's measure).
int64_t MaterializedBytes(const widen::storage::Manifest& m) {
  return m.num_nodes * m.feature_dim * 4 + m.num_half_edges * 8 +
         (m.num_nodes + 1) * 8 + m.num_nodes * 4 +
         (m.num_classes > 0 ? m.num_nodes * 4 : 0);
}

struct Store {
  widen::storage::ShardStoreStats stats;
  std::unique_ptr<widen::storage::ShardedGraph> graph;
  double build_s = 0.0;
  double open_s = 0.0;
};

Store BuildAndOpen(const std::string& dir, uint64_t seed) {
  Store store;
  StopWatch watch;
  widen::datasets::StreamShardingOptions options;
  options.num_shards = kShards;
  options.num_threads = 1;
  auto stats =
      widen::datasets::StreamSyntheticShards(ScaleSpec(kNodes, seed), dir,
                                             options);
  WIDEN_CHECK(stats.ok()) << stats.status().ToString();
  store.stats = std::move(stats).value();
  store.build_s = watch.ElapsedSeconds();
  watch.Restart();
  auto opened = widen::storage::ShardedGraph::Open(dir, {true});
  WIDEN_CHECK(opened.ok()) << opened.status().ToString();
  store.graph = std::make_unique<widen::storage::ShardedGraph>(
      std::move(opened).value());
  store.open_s = watch.ElapsedSeconds();
  return store;
}

// Sweeps chunks in shard order; one instance per view.
class Sweeper {
 public:
  Sweeper(const widen::storage::ShardedGraph& store, uint64_t seed,
          Tracer& tracer)
      : store_(store),
        view_(store, kHaloRows),
        seed_(seed),
        tracer_(tracer),
        num_chunks_((store.num_nodes() + kChunk - 1) / kChunk),
        resident_budget_(std::max(
            MaterializedBytes(store.manifest()) * 2 / 5,
            widen::obs::ReadCurrentRssBytes() + (int64_t{32} << 20))) {}

  int64_t num_chunks() const { return num_chunks_; }

  // Sweeps chunk `c` (modulo the chunk count); returns its digest.
  uint64_t SweepChunk(int64_t c) {
    c %= num_chunks_;
    const int64_t begin = c * kChunk;
    const int64_t end = std::min(begin + kChunk, store_.num_nodes());
    const int32_t shard = store_.Locate(static_cast<NodeId>(begin)).shard;
    if (shard != view_.home_shard()) {
      if (view_.home_shard() >= 0) store_.EvictShard(view_.home_shard());
      view_.SetHomeShard(shard);
      resident_mb_ = std::max(
          resident_mb_,
          static_cast<double>(store_.ResidentBytes()) / (1 << 20));
    }
    widen::Rng rng(MixSeed(seed_, static_cast<uint64_t>(c)));
    uint64_t digest = 0xCBF29CE484222325ull;
    for (int64_t v = begin; v < end; ++v) {
      // Every kTraceEvery-th node is traced, so span and clock costs stay a
      // small share of a ~12 us node.
      const bool traced = tracer_.enabled() && v % kTraceEvery == 0;
      Tracer& t = traced ? tracer_ : untraced_;
      Tracer::Scope node(t, nullptr, "node");
      widen::sampling::WideNeighborSet wide;
      {
        Tracer::Scope span(t, "sampling", "SampleWideNeighbors");
        wide = widen::sampling::SampleWideNeighbors(
            view_, static_cast<NodeId>(v), kWideSample, rng);
      }
      double feature_sum = 0.0;
      {
        Tracer::Scope span(t, "storage", "feature_row");
        for (NodeId u : wide.nodes) {
          const int64_t misses = traced ? view_.halo_stats()->misses : 0;
          const int64_t start = traced ? NowNs() : 0;
          const float* row = view_.feature_row(u);
          if (row == nullptr) {
            ++failed_;
            continue;
          }
          if (traced && view_.halo_stats()->misses != misses) {
            miss_fill_us_.push_back(static_cast<double>(NowNs() - start) /
                                    1e3);
          }
          feature_sum += row[0] + row[store_.feature_dim() - 1];
        }
      }
      for (NodeId u : wide.nodes) {
        digest = (digest ^ static_cast<uint32_t>(u)) * 0x100000001B3ull;
      }
      uint64_t bits = 0;
      std::memcpy(&bits, &feature_sum, sizeof(bits));
      digest = (digest ^ bits) * 0x100000001B3ull;
    }
    nodes_ += end - begin;
    // scale_bench's RSS safety net: evict everything if the process grows
    // past 40% of the materialized graph. Nonzero firings are a regression.
    if (widen::obs::ReadCurrentRssBytes() > resident_budget_) {
      for (int32_t s = 0; s < store_.num_shards(); ++s) store_.EvictShard(s);
      ++full_evictions_;
    }
    return digest;
  }

  const widen::storage::ShardedGraphView& view() const { return view_; }
  int64_t nodes() const { return nodes_; }
  int64_t failed() const { return failed_; }
  int64_t full_evictions() const { return full_evictions_; }
  double resident_mb() const { return resident_mb_; }
  const std::vector<double>& miss_fill_us() const { return miss_fill_us_; }

 private:
  const widen::storage::ShardedGraph& store_;
  widen::storage::ShardedGraphView view_;
  uint64_t seed_;
  Tracer& tracer_;
  Tracer untraced_{false};
  int64_t num_chunks_;
  int64_t resident_budget_;
  int64_t nodes_ = 0;
  int64_t failed_ = 0;
  int64_t full_evictions_ = 0;
  double resident_mb_ = 0.0;
  std::vector<double> miss_fill_us_;
};

void EvictAll(const widen::storage::ShardedGraph& store) {
  for (int32_t s = 0; s < store.num_shards(); ++s) store.EvictShard(s);
}

// Re-sweeps the first chunks with a fresh view and compares digests.
void Recheck(const widen::storage::ShardedGraph& store, uint64_t seed,
             const std::vector<uint64_t>& digests, WorkloadResult& result) {
  Tracer off(false);
  Sweeper again(store, seed, off);
  const int64_t chunks =
      std::min<int64_t>(kRecheckChunks, static_cast<int64_t>(digests.size()));
  for (int64_t c = 0; c < chunks; ++c) {
    if (again.SweepChunk(c) != digests[static_cast<size_t>(c)]) {
      result.Fail("ooc_sweep: chunk digest differs on a repeated sweep");
      return;
    }
  }
  Provenance("ooc.rechecked_chunks", static_cast<double>(chunks));
}

void Describe(const Store& store) {
  const widen::storage::Manifest& m = store.graph->manifest();
  Provenance("ooc.nodes", static_cast<double>(m.num_nodes));
  Provenance("ooc.half_edges", static_cast<double>(m.num_half_edges));
  Provenance("ooc.shards", static_cast<double>(m.num_shards));
  Provenance("ooc.feature_dim", static_cast<double>(m.feature_dim));
  Provenance("ooc.store_mb",
             static_cast<double>(store.stats.total_bytes) / (1 << 20));
  Provenance("ooc.chunk_nodes", static_cast<double>(kChunk));
  Provenance("ooc.wide_sample", static_cast<double>(kWideSample));
  Provenance("ooc.halo_rows", static_cast<double>(kHaloRows));
}

double EdgeCutFrac(const Store& store) {
  return static_cast<double>(store.stats.cut_half_edges) /
         static_cast<double>(
             std::max<int64_t>(store.stats.TotalHalfEdges(), 1));
}

WorkloadResult RunOocTraced(const RunArgs& args, const std::string& dir) {
  WorkloadResult result;
  const Store store = BuildAndOpen(dir, args.seed);
  Describe(store);
  const widen::storage::ShardedGraph& graph = *store.graph;
  // The same chunks three times, each with a fresh view: a warm-up pass, the
  // untraced pass tracing is priced against, and the traced pass.
  const int64_t chunks = std::min<int64_t>(
      (graph.num_nodes() + kChunk - 1) / kChunk, kTracedChunks);
  Tracer off(false);
  std::vector<uint64_t> digests;
  {
    Sweeper warm(graph, args.seed, off);
    for (int64_t c = 0; c < chunks; ++c) digests.push_back(warm.SweepChunk(c));
  }
  EvictAll(graph);
  Sweeper untraced(graph, args.seed, off);
  StopWatch watch;
  for (int64_t c = 0; c < chunks; ++c) {
    if (untraced.SweepChunk(c) != digests[static_cast<size_t>(c)]) {
      result.Fail("ooc_sweep: chunk digest differs on a repeated sweep");
    }
  }
  const double untraced_s = watch.ElapsedSeconds();
  EvictAll(graph);

  Tracer tracer(true);
  Sweeper traced(graph, args.seed, tracer);
  watch.Restart();
  for (int64_t c = 0; c < chunks; ++c) {
    if (traced.SweepChunk(c) != digests[static_cast<size_t>(c)]) {
      result.Fail("ooc_sweep: traced chunk digest differs");
    }
  }
  const double traced_s = watch.ElapsedSeconds();
  const widen::storage::HaloCacheStats* halo = traced.view().halo_stats();
  result.Set("storage.build_s", store.build_s, 1);
  result.Set("storage.open_s", store.open_s, 1);
  const int64_t traced_nodes = traced.nodes() / kTraceEvery;
  result.Set("sampling.wide_us_per_node",
             tracer.TotalMs("SampleWideNeighbors") * 1e3 /
                 static_cast<double>(traced_nodes),
             traced_nodes);
  result.Set("halo.hit_ratio", halo->HitRate(), halo->hits + halo->misses);
  result.Set("halo.miss_fill_us", Percentile(traced.miss_fill_us(), 0.5),
             static_cast<int64_t>(traced.miss_fill_us().size()));
  result.Set("storage.edge_cut_frac", EdgeCutFrac(store));
  result.Set("storage.resident_mb", traced.resident_mb());
  result.Set("storage.full_evictions",
             static_cast<double>(traced.full_evictions()));
  result.Set("trace.overhead_frac", traced_s / untraced_s - 1.0);
  result.Set("trace.unattributed_frac", tracer.UnattributedFrac());
  result.Set("layer.sampling.self_frac", tracer.SelfFrac("sampling"));
  result.Set("layer.storage.self_frac", tracer.SelfFrac("storage"));
  result.attempted = untraced.nodes() + traced.nodes();
  result.failed = untraced.failed() + traced.failed();
  const widen::Status written = tracer.WriteChromeTrace(TracePath(args));
  if (!written.ok()) result.Fail("trace write: " + written.ToString());
  return result;
}

}  // namespace

WorkloadResult RunOoc(const RunArgs& args) {
  const std::string dir = args.workdir + "/ooc_store";
  WorkloadResult result;
  if (args.trace) {
    result = RunOocTraced(args, dir);
  } else {
    // Each set-up builds and opens the store afresh and is swept in whole
    // passes for its share of --seconds: at least one pass, and another
    // only if it should end within the share. The figures are medians over
    // all passes of all builds, which spread over the whole run.
    std::vector<double> setup_s;
    std::vector<double> chunk_ms;
    std::vector<uint64_t> digests;
    Store store;
    int64_t nodes = 0;
    int64_t failed = 0;
    int64_t full_evictions = 0;
    double sweep_s = 0.0;
    double halo_hit_ratio = 0.0;
    const int64_t num_chunks = (kNodes + kChunk - 1) / kChunk;
    // Freeing a sweep's halo arena would raise glibc's mmap threshold to its
    // size, so the next build's buffers would come from the heap, where
    // fragmentation can keep them resident: peak RSS would depend on the
    // allocation order. Pinning the threshold at its default makes every
    // build allocate as the first does, and the buffers below are sized
    // before the first build so none grows between builds.
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    chunk_ms.reserve(static_cast<size_t>(num_chunks * kMaxPasses));
    digests.reserve(static_cast<size_t>(num_chunks));
    for (int i = 0; i < kSetups; ++i) {
      store = Store();  // unmaps the previous store before rebuilding it
      StopWatch watch;
      store = BuildAndOpen(dir, args.seed);
      setup_s.push_back(watch.ElapsedSeconds());
      const widen::storage::ShardedGraph& graph = *store.graph;
      WIDEN_CHECK_EQ(graph.num_nodes(), kNodes);
      EvictAll(graph);

      Tracer off(false);
      Sweeper sweeper(graph, args.seed, off);
      // Whole passes only: chunk costs differ along the store (node types
      // are laid out in id order), so a partial pass would make the chunk
      // mix, and with it every figure, depend on how far the run got.
      StopWatch phase;
      const double share_s = args.seconds / kSetups;
      for (int64_t pass = 0;
           pass == 0 || phase.ElapsedSeconds() * (pass + 1) / pass <= share_s;
           ++pass) {
        for (int64_t c = 0; c < num_chunks; ++c) {
          const int64_t start = NowNs();
          const uint64_t digest = sweeper.SweepChunk(c);
          chunk_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
          if (digests.size() < static_cast<size_t>(num_chunks)) {
            digests.push_back(digest);
          } else if (digests[static_cast<size_t>(c)] != digest) {
            result.Fail("ooc_sweep: chunk digest differs on a later pass");
          }
        }
      }
      sweep_s += phase.ElapsedSeconds();
      nodes += sweeper.nodes();
      failed += sweeper.failed();
      full_evictions += sweeper.full_evictions();
      halo_hit_ratio = sweeper.view().halo_stats()->HitRate();
    }
    Describe(store);
    const double peak_rss_mb = PeakRssMb();
    Recheck(*store.graph, args.seed, digests, result);

    // Tail windows are whole passes, for the same reason. The chunk times of
    // a pass spread evenly over 5-20 ms, so their median moves by
    // milliseconds with small shifts; p50_ms is the median over passes of
    // the pass's mean chunk time instead.
    const TimingSummary chunks =
        Summarize(chunk_ms, static_cast<size_t>(num_chunks));
    // The rate is likewise the median over passes, so a slow spell of the
    // host that spans one pass moves neither.
    std::vector<double> pass_mean_ms, pass_nodes_per_s;
    for (size_t begin = 0; begin < chunk_ms.size();
         begin += static_cast<size_t>(num_chunks)) {
      const size_t end = begin + static_cast<size_t>(num_chunks);
      const double pass_ms = std::accumulate(
          chunk_ms.begin() + static_cast<std::ptrdiff_t>(begin),
          chunk_ms.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
      pass_mean_ms.push_back(pass_ms / static_cast<double>(end - begin));
      pass_nodes_per_s.push_back(static_cast<double>(kNodes) /
                                 (pass_ms / 1e3));
    }
    result.attempted = nodes;
    result.failed = failed;
    result.Set("setup_s", Percentile(setup_s, 0.5),
               static_cast<int64_t>(setup_s.size()));
    result.Set("peak_rss_mb", peak_rss_mb);
    result.Set("ok_frac",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(std::max<int64_t>(
                             result.attempted, 1)),
               result.attempted);
    result.Set("p50_ms", Percentile(pass_mean_ms, 0.5),
               static_cast<int64_t>(chunks.n));
    result.Set("tail_ms", chunks.tail, static_cast<int64_t>(chunks.n));
    result.Set("work_per_s", Percentile(pass_nodes_per_s, 0.5),
               static_cast<int64_t>(pass_nodes_per_s.size()));
    Provenance("ooc.passes", static_cast<double>(pass_mean_ms.size()));
    std::string pass_rates;
    for (double r : pass_nodes_per_s) {
      pass_rates += (pass_rates.empty() ? "" : " ") + std::to_string(r);
    }
    Provenance("ooc.pass_nodes_per_s", pass_rates);
    Provenance("ooc.chunk_median_ms", chunks.p50);
    Provenance("ooc.sweep_s", sweep_s);
    Provenance("ooc.tail_quantile", chunks.tail_q);
    Provenance("ooc.build_s", store.build_s);
    Provenance("ooc.open_s", store.open_s);
    Provenance("ooc.halo_hit_ratio", halo_hit_ratio);
    Provenance("ooc.edge_cut_frac", EdgeCutFrac(store));
    Provenance("ooc.full_evictions", static_cast<double>(full_evictions));
  }
  // The store is the largest thing a run leaves behind.
  auto files = widen::ListDirectoryFiles(dir);
  if (files.ok()) {
    for (const std::string& f : *files) {
      (void)widen::RemoveFileIfExists(dir + "/" + f);
    }
  }
  return result;
}

}  // namespace perfbench
