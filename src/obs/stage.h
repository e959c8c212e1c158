// Stages: the one timing primitive of the observability layer (DESIGN.md
// §11-12).
//
// Every timed interval in the program is an RAII StageScope keyed by a
// Stage. kStageTable below is the single name table: a stage has the same
// name in the profiler report (/profilez, --profile_out) and in Chrome trace
// events (--trace_out, WIDEN_TRACE), and the table also says which
// Prometheus histogram (if any) the stage feeds and at what sampling rate.
// A new stage is one enum value plus one table row.
//
// A scope reads the clock at most twice — once on entry, once on exit —
// however many sinks are on, and feeds the same interval to each of them:
//
//   - profiler on:  the stage's SELF time (elapsed minus enclosed child
//                   scopes) and a call count land in the calling thread's
//                   profiler table, and tensor ops run inside the scope are
//                   attributed to its stage;
//   - tracing on:   one Chrome "X" event;
//   - metrics on:   the stage's histogram, if it has one, records the
//                   elapsed microseconds for 1 in `sample_every` scopes per
//                   thread (hot stages cheaper than a clock read sample).
//
// With every sink off a scope is two relaxed loads and a branch (three for
// a stage with a histogram): no clock read, no allocation, no TLS write.
//
// Self times telescope: each scope's elapsed time is subtracted from its
// parent once, so the self times of a scope tree always sum to the root's
// elapsed wall time. A scope run on another thread on behalf of a parent
// (a pool worker in a fan-out) names that parent explicitly; when such
// children overlap in time the parent's self time goes negative by the
// wall time the parallelism saved, and the sum still closes.
//
// All stamps come from MonotonicNanos(): one steady clock with one
// process-wide epoch shared by trace events, profiler self time and flight
// records.

#ifndef WIDEN_OBS_STAGE_H_
#define WIDEN_OBS_STAGE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace widen::obs {

enum class Stage : uint8_t {
  kOther = 0,  // work outside any stage scope
  kTrainEpoch,
  kSampleTargetStates,
  kSampling,
  kDeepWalk,
  kSupervisedBatches,
  kForward,
  kBackward,
  kOptimizer,
  kRefreshSweep,
  kCkptSave,
  kCkptRestore,
  kBundleSave,
  kBundleLoad,
  kEmbed,
  kColdEncode,
  kIngest,
  kRunBatch,
  kReload,
  kHaloMissFill,
};
inline constexpr int kNumStages = 20;

struct StageInfo {
  const char* name;       // profiler row, trace event name
  const char* layer;      // trace event category
  const char* histogram;  // Prometheus histogram (microseconds) or nullptr
  const char* help;       // its help string
  uint32_t sample_every;  // histogram records 1 in N scopes (power of two)
};

// Indexed by Stage.
inline constexpr StageInfo kStageTable[kNumStages] = {
    {"other", "widen", nullptr, nullptr, 1},
    {"train_epoch", "train", nullptr, nullptr, 1},
    {"sample_target_states", "train", nullptr, nullptr, 1},
    {"sampling", "sampling", nullptr, nullptr, 1},
    // A walk is a handful of neighbor lookups, cheaper than a clock read.
    {"deep_walk", "sampling", "widen_sampling_walk_us",
     "Wall time per deep random walk (microseconds, 1-in-16 sampled)", 16},
    {"supervised_batches", "train", nullptr, nullptr, 1},
    {"forward", "train", nullptr, nullptr, 1},
    {"backward", "tensor", nullptr, nullptr, 1},
    {"optimizer", "train", nullptr, nullptr, 1},
    {"refresh_sweep", "train", nullptr, nullptr, 1},
    {"ckpt_save", "ckpt", "widen_ckpt_train_save_us",
     "Wall time per training-state checkpoint save (microseconds)", 1},
    {"ckpt_restore", "ckpt", nullptr, nullptr, 1},
    {"bundle_save", "ckpt", "widen_ckpt_save_us",
     "Wall time per bundle save (microseconds)", 1},
    {"bundle_load", "ckpt", "widen_ckpt_load_us",
     "Wall time per bundle load (microseconds)", 1},
    {"embed", "serve", "widen_serve_embed_us",
     "Wall time per InferenceSession::Embed call (microseconds)", 1},
    {"cold_encode", "serve", nullptr, nullptr, 1},
    {"ingest", "serve", nullptr, nullptr, 1},
    {"run_batch", "serve", nullptr, nullptr, 1},
    {"reload", "serve", nullptr, nullptr, 1},
    {"halo_miss_fill", "storage", "widen_storage_halo_miss_fill_us",
     "Latency of halo cache miss fills (sampled 1/32)", 32},
};

constexpr bool StageTableIsWellFormed() {
  for (const StageInfo& info : kStageTable) {
    if (info.name == nullptr || info.layer == nullptr) return false;
    if ((info.histogram == nullptr) != (info.help == nullptr)) return false;
    if (info.sample_every == 0 ||
        (info.sample_every & (info.sample_every - 1)) != 0) {
      return false;
    }
  }
  return true;
}
static_assert(static_cast<int>(Stage::kHaloMissFill) + 1 == kNumStages,
              "kNumStages must count every Stage");
static_assert(StageTableIsWellFormed(),
              "every Stage needs a named kStageTable row with a power-of-two "
              "sample_every");

inline constexpr const StageInfo& GetStageInfo(Stage stage) {
  return kStageTable[static_cast<int>(stage)];
}
inline constexpr const char* StageName(Stage stage) {
  return GetStageInfo(stage).name;
}

/// The stage's histogram (registered on first call), or nullptr when the
/// stage has none.
Histogram* StageHistogram(Stage stage);

/// Nanoseconds / microseconds since the process-wide steady-clock epoch.
int64_t MonotonicNanos();
inline int64_t MonotonicMicros() { return MonotonicNanos() / 1000; }
/// A steady-clock reading the caller already holds, on the same axis, so
/// one clock read can feed both a duration and a stamp.
int64_t MonotonicNanosAt(std::chrono::steady_clock::time_point t);

namespace internal_prof {
extern std::atomic<bool> g_profiler_enabled;  // default: false
}  // namespace internal_prof
namespace internal_trace {
extern std::atomic<bool> g_trace_enabled;  // default: false
}  // namespace internal_trace

/// True while the profiler records stage self times and tensor ops.
inline bool ProfilerEnabled() {
  return internal_prof::g_profiler_enabled.load(std::memory_order_relaxed);
}

/// True while stage scopes are recorded as Chrome trace events.
inline bool TraceEnabled() {
  return internal_trace::g_trace_enabled.load(std::memory_order_relaxed);
}

/// The stage tensor ops on this thread are attributed to: the innermost
/// live profiled scope's, kOther outside any.
Stage CurrentStage();

/// RAII stage scope. `parent` is only for scopes opened on another thread
/// on behalf of a scope that is waiting for them (pool workers of a
/// fan-out); it is credited with this scope's elapsed time. Otherwise the
/// parent is the calling thread's enclosing scope.
class StageScope {
 public:
  explicit StageScope(Stage stage, StageScope* parent = nullptr)
      : stage_(stage) {
    if (ProfilerEnabled() || TraceEnabled() ||
        (GetStageInfo(stage).histogram != nullptr && MetricsEnabled())) {
      Begin(parent);
    }
  }
  ~StageScope() {
    if (sinks_ != 0) End();
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  Stage stage() const { return stage_; }

 private:
  void Begin(StageScope* parent);
  void End();

  Stage stage_;
  uint8_t sinks_ = 0;  // the sinks chosen on entry
  int64_t start_ns_ = 0;
  StageScope* prev_ = nullptr;    // this thread's enclosing profiled scope
  StageScope* parent_ = nullptr;  // credited with this scope's elapsed time
  std::atomic<int64_t> child_ns_{0};
};

}  // namespace widen::obs

#endif  // WIDEN_OBS_STAGE_H_
