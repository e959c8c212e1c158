#include "obs/stage.h"

#include <chrono>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace widen::obs {

namespace {

enum : uint8_t {
  kProfileSink = 1,
  kTraceSink = 2,
  kHistogramSink = 4,
};

// Innermost live profiled scope on this thread.
thread_local StageScope* t_innermost = nullptr;

}  // namespace

int64_t MonotonicNanosAt(std::chrono::steady_clock::time_point t) {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

int64_t MonotonicNanos() {
  return MonotonicNanosAt(std::chrono::steady_clock::now());
}

Histogram* StageHistogram(Stage stage) {
  static std::atomic<Histogram*> histograms[kNumStages] = {};
  const StageInfo& info = GetStageInfo(stage);
  if (info.histogram == nullptr) return nullptr;
  std::atomic<Histogram*>& slot = histograms[static_cast<int>(stage)];
  Histogram* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    // Find-or-create is idempotent, so racing first calls agree.
    h = MetricsRegistry::Get().GetHistogram(info.histogram, info.help);
    slot.store(h, std::memory_order_release);
  }
  return h;
}

Stage CurrentStage() {
  return t_innermost != nullptr ? t_innermost->stage() : Stage::kOther;
}

void StageScope::Begin(StageScope* parent) {
  const StageInfo& info = GetStageInfo(stage_);
  if (info.histogram != nullptr && MetricsEnabled()) {
    thread_local uint32_t ticks[kNumStages] = {};
    if ((ticks[static_cast<int>(stage_)]++ & (info.sample_every - 1)) == 0) {
      sinks_ |= kHistogramSink;
    }
  }
  if (TraceEnabled()) sinks_ |= kTraceSink;
  if (ProfilerEnabled()) {
    sinks_ |= kProfileSink;
    prev_ = t_innermost;
    parent_ = parent != nullptr ? parent : prev_;
    if (parent_ != nullptr && (parent_->sinks_ & kProfileSink) == 0) {
      parent_ = nullptr;  // opened before the profiler started
    }
    t_innermost = this;
  }
  if (sinks_ != 0) start_ns_ = MonotonicNanos();
}

void StageScope::End() {
  const int64_t end_ns = MonotonicNanos();
  const int64_t elapsed_ns = end_ns - start_ns_;
  if (sinks_ & kProfileSink) {
    using internal_prof::CellAdd;
    internal_prof::StageCell& cell =
        internal_prof::GetThreadTable().stages[static_cast<int>(stage_)];
    CellAdd(cell.calls, 1);
    CellAdd(cell.self_ns,
            elapsed_ns - child_ns_.load(std::memory_order_relaxed));
    if (parent_ != nullptr) {
      parent_->child_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
    }
    t_innermost = prev_;
  }
  if (sinks_ & kTraceSink) {
    // Both ends truncate to the same microsecond grid, so nested events
    // stay nested in the export.
    const int64_t start_us = start_ns_ / 1000;
    internal_trace::AppendEvent({stage_, start_us, end_ns / 1000 - start_us});
  }
  if (sinks_ & kHistogramSink) {
    StageHistogram(stage_)->Record(static_cast<double>(elapsed_ns) / 1e3);
  }
}

}  // namespace widen::obs
