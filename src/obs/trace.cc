#include "obs/trace.h"

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/logging.h"

namespace widen::obs {

namespace internal_trace {

std::atomic<bool> g_trace_enabled{false};

namespace {

// Per-thread event buffer. Each buffer has its own mutex, taken by the
// owning thread only on append (uncontended) and by exporters on read, so
// recording threads never serialize against each other.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Event> events;
  int log_thread_id = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;  // leaked at exit; trivially small
  std::atomic<size_t> total_events{0};
  std::atomic<size_t> max_events{TraceRecorder::kDefaultMaxEvents};
  std::atomic<size_t> dropped_events{0};
};

Registry& GetRegistry() {
  static Registry* const registry = new Registry();
  return *registry;
}

ThreadBuffer& GetThreadBuffer() {
  thread_local ThreadBuffer* const buffer = [] {
    auto* b = new ThreadBuffer();
    b->log_thread_id = CurrentThreadLogId();
    b->events.reserve(1024);
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

// One thread's events, copied or taken out of its buffer for export.
struct ThreadEvents {
  int log_thread_id;
  std::vector<Event> events;
};

// Copies every buffer, or with `take` moves the events out (swapping each
// buffer empty under its own lock) and releases them from the cap.
std::vector<ThreadEvents> CollectEvents(bool take) {
  Registry& reg = GetRegistry();
  std::vector<ThreadEvents> out;
  std::lock_guard<std::mutex> lock(reg.mu);
  out.reserve(reg.buffers.size());
  for (ThreadBuffer* buffer : reg.buffers) {
    ThreadEvents te{buffer->log_thread_id, {}};
    {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      if (take) {
        te.events.swap(buffer->events);
      } else {
        te.events = buffer->events;
      }
    }
    if (take) {
      reg.total_events.fetch_sub(te.events.size(), std::memory_order_relaxed);
    }
    out.push_back(std::move(te));
  }
  return out;
}

std::string FormatChromeJson(const std::vector<ThreadEvents>& threads) {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const ThreadEvents& te : threads) {
    for (const Event& e : te.events) {
      const StageInfo& info = GetStageInfo(e.stage);
      out << (first ? "\n" : ",\n") << "{\"name\": \""
          << JsonEscape(info.name) << "\", \"cat\": \""
          << JsonEscape(info.layer) << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": " << te.log_thread_id << ", \"ts\": " << e.start_us
          << ", \"dur\": " << e.duration_us << "}";
      first = false;
    }
  }
  out << (first ? "" : "\n") << "], \"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

size_t CountEvents(const std::vector<ThreadEvents>& threads) {
  size_t n = 0;
  for (const ThreadEvents& te : threads) n += te.events.size();
  return n;
}

}  // namespace

void AppendEvent(const Event& event) {
  Registry& reg = GetRegistry();
  if (reg.total_events.load(std::memory_order_relaxed) >=
      reg.max_events.load(std::memory_order_relaxed)) {
    reg.dropped_events.fetch_add(1, std::memory_order_relaxed);
    WIDEN_METRIC_COUNTER(dropped, "widen_trace_dropped_spans_total",
                         "Trace spans dropped at the TraceRecorder cap");
    dropped->Increment();
    return;
  }
  reg.total_events.fetch_add(1, std::memory_order_relaxed);
  ThreadBuffer& buffer = GetThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(event);
}

}  // namespace internal_trace

TraceRecorder& TraceRecorder::Get() {
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Start() {
  MonotonicNanos();  // pin the epoch before the first event
  internal_trace::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Stop() {
  internal_trace::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Clear() {
  internal_trace::CollectEvents(/*take=*/true);
}

void TraceRecorder::SetMaxEvents(size_t max_events) {
  internal_trace::GetRegistry().max_events.store(max_events,
                                                 std::memory_order_relaxed);
}

size_t TraceRecorder::MaxEvents() {
  return internal_trace::GetRegistry().max_events.load(
      std::memory_order_relaxed);
}

size_t TraceRecorder::DroppedCount() const {
  return internal_trace::GetRegistry().dropped_events.load(
      std::memory_order_relaxed);
}

size_t TraceRecorder::EventCount() const {
  auto& reg = internal_trace::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  size_t total = 0;
  for (auto* buffer : reg.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

std::string TraceRecorder::ExportChromeJson() const {
  return internal_trace::FormatChromeJson(
      internal_trace::CollectEvents(/*take=*/false));
}

Status TraceRecorder::WriteChromeJson(const std::string& path) const {
  return WriteStringToFile(path, ExportChromeJson());
}

namespace {

std::string* g_trace_exit_path = nullptr;

void ExportTraceAtExit() {
  if (g_trace_exit_path == nullptr) return;
  TraceRecorder::Get().Stop();
  const Status status =
      TraceRecorder::Get().WriteChromeJson(*g_trace_exit_path);
  if (!status.ok()) {
    WIDEN_LOG(Error) << "trace export failed: " << status.message();
  } else {
    std::fprintf(stderr, "[trace] wrote %zu events to %s\n",
                 TraceRecorder::Get().EventCount(),
                 g_trace_exit_path->c_str());
  }
}

}  // namespace

Status TraceRecorder::Flush() {
  if (g_trace_exit_path == nullptr) return Status::OK();
  // Taking the events before the write bounds a long-running server's trace
  // memory to one flush interval, and events recorded during the write stay
  // buffered for the next flush.
  const std::vector<internal_trace::ThreadEvents> taken =
      internal_trace::CollectEvents(/*take=*/true);
  const Status status = WriteStringToFile(
      *g_trace_exit_path, internal_trace::FormatChromeJson(taken));
  if (!status.ok()) {
    internal_trace::GetRegistry().dropped_events.fetch_add(
        internal_trace::CountEvents(taken), std::memory_order_relaxed);
  }
  return status;
}

void InstallTraceExportOnExit(const std::string& trace_out) {
  std::string path = trace_out;
  if (path.empty()) {
    const char* env = std::getenv("WIDEN_TRACE");
    if (env != nullptr && env[0] != '\0') path = env;
  }
  if (path.empty()) return;
  WIDEN_CHECK(g_trace_exit_path == nullptr)
      << "InstallTraceExportOnExit called twice";
  g_trace_exit_path = new std::string(std::move(path));
  TraceRecorder::Get().Start();
  std::atexit(ExportTraceAtExit);
}

}  // namespace widen::obs
