// In-memory spans for the traced run (--trace 1).
//
// The benchmark records a span around each call it makes into a layer's
// public functions: name, layer, start, end, and the span that encloses it.
// A span's self time is its duration minus the time its child spans cover,
// accumulated per layer as spans close, so the per-layer split costs no
// post-processing. Root spans carry no layer; their summed duration is the
// end-to-end time the split is taken against, and whatever no layer claims
// is reported as unattributed. Spans stay in memory (up to a cap) and are
// written as a Chrome trace_event file when the run ends.
//
// One Tracer per thread; it is not synchronized.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// A disabled tracer ignores every call (the untraced run).
  explicit Tracer(bool enabled, size_t max_kept_spans = 100000)
      : enabled_(enabled), max_kept_(max_kept_spans) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. `layer` nullptr marks a root (end-to-end) span; both
  /// strings must be literals or otherwise outlive the tracer.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, const char* name,
          uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  // null when disabled
    size_t depth_ = 0;
  };

  /// Records a finished span whose children the caller accounted for:
  /// `child_ns` of [start_ns, end_ns) belongs to other spans.
  void Add(const char* layer, const char* name, int64_t start_ns,
           int64_t end_ns, int64_t child_ns, uint64_t request = 0);

  /// Summed duration (children included) of the spans called `name`, ms.
  double TotalMs(const std::string& name) const;
  /// Summed duration of root spans, milliseconds.
  double RootMs() const { return static_cast<double>(root_ns_) / 1e6; }
  /// 1 - (sum of layer self time) / RootMs(); 0 when nothing was traced.
  double UnattributedFrac() const;
  /// Layer self time over RootMs() (0 for a layer never seen).
  double SelfFrac(const std::string& layer) const;

  int64_t spans_recorded() const { return recorded_; }

  /// Writes kept spans as Chrome trace_event JSON ("X" events).
  widen::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    const char* layer;
    const char* name;
    uint64_t request;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Kept {
    const char* layer;
    const char* name;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t depth;
  };

  void Close(size_t depth);

  bool enabled_;
  size_t max_kept_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  // Keyed by the literal's address (cheap on the hot path); reports merge
  // keys that spell the same string.
  std::unordered_map<const char*, int64_t> self_ns_;
  std::unordered_map<const char*, int64_t> total_ns_by_name_;
  int64_t root_ns_ = 0;
  int64_t recorded_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
