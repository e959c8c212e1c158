#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/memprof.h"
#include "obs/metrics.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/logging.h"

namespace widen::obs {

const char* ProfOpName(ProfOp op) {
  switch (op) {
    case ProfOp::kMatMul: return "MatMul";
    case ProfOp::kTranspose: return "Transpose";
    case ProfOp::kAdd: return "Add";
    case ProfOp::kSub: return "Sub";
    case ProfOp::kMul: return "Mul";
    case ProfOp::kScale: return "Scale";
    case ProfOp::kAddScalar: return "AddScalar";
    case ProfOp::kMaximum: return "Maximum";
    case ProfOp::kRelu: return "Relu";
    case ProfOp::kLeakyRelu: return "LeakyRelu";
    case ProfOp::kElu: return "Elu";
    case ProfOp::kTanh: return "Tanh";
    case ProfOp::kSigmoid: return "Sigmoid";
    case ProfOp::kExp: return "Exp";
    case ProfOp::kLog: return "Log";
    case ProfOp::kSoftmaxRows: return "SoftmaxRows";
    case ProfOp::kMaskedSoftmaxRows: return "MaskedSoftmaxRows";
    case ProfOp::kSoftmaxCrossEntropy: return "SoftmaxCrossEntropy";
    case ProfOp::kSumSquares: return "SumSquares";
    case ProfOp::kConcatRows: return "ConcatRows";
    case ProfOp::kConcatCols: return "ConcatCols";
    case ProfOp::kSliceRows: return "SliceRows";
    case ProfOp::kSliceCols: return "SliceCols";
    case ProfOp::kScaleBy: return "ScaleBy";
    case ProfOp::kGatherRows: return "GatherRows";
    case ProfOp::kSumRows: return "SumRows";
    case ProfOp::kSumAll: return "SumAll";
    case ProfOp::kRowL2Normalize: return "RowL2Normalize";
    case ProfOp::kDropout: return "Dropout";
    case ProfOp::kSegmentAttention: return "SegmentAttention";
  }
  return "unknown";
}

namespace {

// Report annotations (SetProfileAnnotation). Ordered map so DumpJson output
// is stable; leaked at exit like the thread-table registry.
struct AnnotationMap {
  std::mutex mu;
  std::map<std::string, std::string> entries;
};

AnnotationMap& GetAnnotations() {
  static AnnotationMap* const map = new AnnotationMap();
  return *map;
}

}  // namespace

void SetProfileAnnotation(const std::string& key, const std::string& value) {
  AnnotationMap& map = GetAnnotations();
  std::lock_guard<std::mutex> lock(map.mu);
  map.entries[key] = value;
}

std::string GetProfileAnnotation(const std::string& key) {
  AnnotationMap& map = GetAnnotations();
  std::lock_guard<std::mutex> lock(map.mu);
  const auto it = map.entries.find(key);
  return it == map.entries.end() ? std::string() : it->second;
}

namespace internal_prof {

std::atomic<bool> g_profiler_enabled{false};

namespace {

struct Registry {
  std::mutex mu;
  std::vector<ThreadProfTable*> tables;  // leaked at exit, like the trace
};                                       // buffers: workers never outlive it

Registry& GetRegistry() {
  static Registry* const registry = new Registry();
  return *registry;
}

using Field = std::atomic<int64_t> StageCell::*;
constexpr Field kAllocFields[] = {
    &StageCell::tensor_allocs, &StageCell::tensor_bytes,
    &StageCell::grad_allocs, &StageCell::grad_bytes, &StageCell::tape_nodes};

// One field of one stage's cell, summed over every thread.
int64_t SumStage(int stage, Field field) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  int64_t total = 0;
  for (const ThreadProfTable* table : reg.tables) {
    total += (table->stages[stage].*field).load(std::memory_order_relaxed);
  }
  return total;
}

void Zero(std::atomic<int64_t>& cell) {
  cell.store(0, std::memory_order_relaxed);
}

}  // namespace

ThreadProfTable& GetThreadTable() {
  thread_local ThreadProfTable* const table = [] {
    auto* t = new ThreadProfTable();
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.tables.push_back(t);
    return t;
  }();
  return *table;
}

}  // namespace internal_prof

MemProfSnapshot TakeMemProfSnapshot() {
  using internal_prof::StageCell;
  using internal_prof::SumStage;
  MemProfSnapshot snap;
  for (int s = 0; s < kNumStages; ++s) {
    MemProfPhaseStats& out = snap.stages[s];
    out.tensor_allocs = SumStage(s, &StageCell::tensor_allocs);
    out.tensor_bytes = SumStage(s, &StageCell::tensor_bytes);
    out.grad_allocs = SumStage(s, &StageCell::grad_allocs);
    out.grad_bytes = SumStage(s, &StageCell::grad_bytes);
    out.tape_nodes = SumStage(s, &StageCell::tape_nodes);
  }
  snap.peak_rss_bytes = ReadPeakRssBytes();
  snap.current_rss_bytes = ReadCurrentRssBytes();
  return snap;
}

void ResetMemProf() {
  auto& reg = internal_prof::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (internal_prof::ThreadProfTable* table : reg.tables) {
    for (internal_prof::StageCell& c : table->stages) {
      for (const internal_prof::Field f : internal_prof::kAllocFields) {
        internal_prof::Zero(c.*f);
      }
    }
  }
}

Profiler& Profiler::Get() {
  static Profiler* const profiler = new Profiler();
  return *profiler;
}

void Profiler::Start() {
  internal_prof::g_profiler_enabled.store(true, std::memory_order_relaxed);
}

void Profiler::Stop() {
  internal_prof::g_profiler_enabled.store(false, std::memory_order_relaxed);
}

void Profiler::Reset() {
  using internal_prof::Zero;
  auto& reg = internal_prof::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (internal_prof::ThreadProfTable* table : reg.tables) {
    for (auto& per_stage : table->ops) {
      for (internal_prof::OpCell& c : per_stage) {
        Zero(c.calls);
        Zero(c.flops);
        Zero(c.bytes);
        Zero(c.wall_ns);
      }
    }
    for (internal_prof::StageCell& c : table->stages) {
      Zero(c.calls);
      Zero(c.self_ns);
      Zero(c.parallel_calls);
      Zero(c.parallel_chunks);
      Zero(c.parallel_inline);
      for (const internal_prof::Field f : internal_prof::kAllocFields) {
        Zero(c.*f);
      }
    }
  }
}

Profiler::OpTotals Profiler::Totals(ProfOp op, Stage stage) const {
  OpTotals totals;
  auto& reg = internal_prof::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const internal_prof::ThreadProfTable* table : reg.tables) {
    const internal_prof::OpCell& c =
        table->ops[static_cast<int>(op)][static_cast<int>(stage)];
    totals.calls += c.calls.load(std::memory_order_relaxed);
    totals.flops += c.flops.load(std::memory_order_relaxed);
    totals.bytes += c.bytes.load(std::memory_order_relaxed);
    totals.wall_ns += c.wall_ns.load(std::memory_order_relaxed);
  }
  return totals;
}

Profiler::OpTotals Profiler::Totals(ProfOp op) const {
  OpTotals totals;
  for (int s = 0; s < kNumStages; ++s) {
    const OpTotals t = Totals(op, static_cast<Stage>(s));
    totals.calls += t.calls;
    totals.flops += t.flops;
    totals.bytes += t.bytes;
    totals.wall_ns += t.wall_ns;
  }
  return totals;
}

int64_t Profiler::StageSelfNs(Stage stage) const {
  return internal_prof::SumStage(static_cast<int>(stage),
                                 &internal_prof::StageCell::self_ns);
}

namespace {

double EnvPeakOrDefault(const char* env_name, double fallback) {
  const char* env = std::getenv(env_name);
  if (env == nullptr || env[0] == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || !(v > 0.0)) {
    WIDEN_LOG(Warning) << "ignoring invalid " << env_name << "='" << env
                       << "'";
    return fallback;
  }
  return v;
}

double PeakGflops() {
  return EnvPeakOrDefault(
      "WIDEN_ROOFLINE_GFLOPS",
      Profiler::DefaultPeakGflops(GetProfileAnnotation("simd_isa")));
}

double PeakGbs() {
  static const double v =
      EnvPeakOrDefault("WIDEN_ROOFLINE_GBS", Profiler::kDefaultPeakGbs);
  return v;
}

// One aggregated (op, stage) row plus its roofline-derived rates.
struct OpRow {
  ProfOp op;
  Stage stage;
  Profiler::OpTotals t;
  double wall_ms = 0.0;
  double gflops = 0.0;   // achieved GFLOP/s over the op's own wall time
  double gbs = 0.0;      // achieved GB/s over the op's own wall time
  double ai = 0.0;       // arithmetic intensity, FLOPs/byte
  bool compute_bound = false;
};

std::vector<OpRow> CollectRows(const Profiler& prof, double ridge) {
  std::vector<OpRow> rows;
  for (int o = 0; o < kNumProfOps; ++o) {
    for (int s = 0; s < kNumStages; ++s) {
      OpRow row;
      row.op = static_cast<ProfOp>(o);
      row.stage = static_cast<Stage>(s);
      row.t = prof.Totals(row.op, row.stage);
      if (row.t.calls == 0) continue;
      row.wall_ms = static_cast<double>(row.t.wall_ns) / 1e6;
      if (row.t.wall_ns > 0) {
        row.gflops = static_cast<double>(row.t.flops) /
                     static_cast<double>(row.t.wall_ns);
        row.gbs = static_cast<double>(row.t.bytes) /
                  static_cast<double>(row.t.wall_ns);
      }
      row.ai = row.t.bytes > 0 ? static_cast<double>(row.t.flops) /
                                     static_cast<double>(row.t.bytes)
                               : 0.0;
      row.compute_bound = row.ai >= ridge;
      rows.push_back(row);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const OpRow& a, const OpRow& b) {
    return a.t.wall_ns > b.t.wall_ns;
  });
  return rows;
}

}  // namespace

double Profiler::RidgeFlopsPerByte() const { return PeakGflops() / PeakGbs(); }

double Profiler::DefaultPeakGflops(const std::string& isa) {
  return isa == "avx2" || isa == "neon" ? kVectorPeakGflops
                                        : kScalarPeakGflops;
}

std::string Profiler::DumpJson() const {
  const double ridge = RidgeFlopsPerByte();
  const std::vector<OpRow> rows = CollectRows(*this, ridge);
  const MemProfSnapshot mem = TakeMemProfSnapshot();

  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"roofline\": {"
      << "\"peak_gflops\": " << JsonDouble(PeakGflops())
      << ", \"peak_gbs\": " << JsonDouble(PeakGbs())
      << ", \"ridge_flops_per_byte\": " << JsonDouble(ridge) << "},\n";

  {
    AnnotationMap& map = GetAnnotations();
    std::lock_guard<std::mutex> lock(map.mu);
    out << "  \"annotations\": {";
    bool first_ann = true;
    for (const auto& [key, value] : map.entries) {
      out << (first_ann ? "" : ", ") << "\"" << JsonEscape(key) << "\": \""
          << JsonEscape(value) << "\"";
      first_ann = false;
    }
    out << "},\n";
  }

  out << "  \"phases\": [";
  bool first = true;
  for (int s = 0; s < kNumStages; ++s) {
    using internal_prof::StageCell;
    const auto sum = [s](internal_prof::Field f) {
      return internal_prof::SumStage(s, f);
    };
    const int64_t calls = sum(&StageCell::calls);
    const int64_t parallel_calls = sum(&StageCell::parallel_calls);
    const int64_t parallel_inline = sum(&StageCell::parallel_inline);
    const MemProfPhaseStats& alloc = mem.stages[s];
    if (calls == 0 && parallel_calls == 0 && parallel_inline == 0 &&
        alloc.tensor_allocs == 0 && alloc.grad_allocs == 0 &&
        alloc.tape_nodes == 0) {
      continue;
    }
    // wall_ms is SELF time: the rows of all stages sum to the wall time of
    // the outermost scopes.
    out << (first ? "\n" : ",\n") << "    {\"phase\": \""
        << StageName(static_cast<Stage>(s)) << "\", \"calls\": " << calls
        << ", \"wall_ms\": "
        << JsonDouble(static_cast<double>(sum(&StageCell::self_ns)) / 1e6)
        << ", \"parallel_calls\": " << parallel_calls
        << ", \"parallel_chunks\": " << sum(&StageCell::parallel_chunks)
        << ", \"parallel_inline\": " << parallel_inline
        << ", \"tensor_allocs\": " << alloc.tensor_allocs
        << ", \"tensor_alloc_bytes\": " << alloc.tensor_bytes
        << ", \"grad_allocs\": " << alloc.grad_allocs
        << ", \"grad_alloc_bytes\": " << alloc.grad_bytes
        << ", \"tape_nodes\": " << alloc.tape_nodes << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n";

  out << "  \"ops\": [";
  first = true;
  for (const OpRow& row : rows) {
    out << (first ? "\n" : ",\n") << "    {\"op\": \"" << ProfOpName(row.op)
        << "\", \"phase\": \"" << StageName(row.stage) << "\""
        << ", \"calls\": " << row.t.calls << ", \"flops\": " << row.t.flops
        << ", \"bytes\": " << row.t.bytes
        << ", \"wall_ms\": " << JsonDouble(row.wall_ms)
        << ", \"gflops\": " << JsonDouble(row.gflops)
        << ", \"gbs\": " << JsonDouble(row.gbs)
        << ", \"arithmetic_intensity\": " << JsonDouble(row.ai)
        << ", \"bound\": \"" << (row.compute_bound ? "compute" : "memory")
        << "\"}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n";

  const MemProfPhaseStats total = mem.Total();
  // The serve layer keeps this gauge current; 0 when no store exists.
  WIDEN_METRIC_GAUGE(store_bytes, "widen_serve_store_resident_bytes",
                     "Bytes held by EmbeddingStore entries (rows + indexing "
                     "overhead)");
  out << "  \"memory\": {"
      << "\"peak_rss_bytes\": " << mem.peak_rss_bytes
      << ", \"current_rss_bytes\": " << mem.current_rss_bytes
      << ", \"embedding_store_resident_bytes\": "
      << static_cast<int64_t>(store_bytes->Value())
      << ", \"tensor_allocs\": " << total.tensor_allocs
      << ", \"tensor_alloc_bytes\": " << total.tensor_bytes
      << ", \"grad_allocs\": " << total.grad_allocs
      << ", \"grad_alloc_bytes\": " << total.grad_bytes
      << ", \"tape_nodes\": " << total.tape_nodes << "}\n}\n";
  return out.str();
}

std::string Profiler::FormatTopOps(int max_rows) const {
  const double ridge = RidgeFlopsPerByte();
  std::vector<OpRow> rows = CollectRows(*this, ridge);
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-20s %-20s %10s %10s %9s %8s %8s  %s\n", "op", "stage",
                "calls", "wall_ms", "GFLOP/s", "GB/s", "AI", "bound");
  out << line;
  out << std::string(98, '-') << "\n";
  int emitted = 0;
  for (const OpRow& row : rows) {
    if (emitted++ >= max_rows) break;
    std::snprintf(line, sizeof(line),
                  "%-20s %-20s %10lld %10.3f %9.3f %8.3f %8.3f  %s\n",
                  ProfOpName(row.op), StageName(row.stage),
                  static_cast<long long>(row.t.calls), row.wall_ms,
                  row.gflops, row.gbs, row.ai,
                  row.compute_bound ? "compute" : "memory");
    out << line;
  }
  if (rows.empty()) out << "(no ops recorded)\n";
  return out.str();
}

Status Profiler::WriteReport(const std::string& path) const {
  return WriteStringToFile(path, DumpJson());
}

namespace {

std::string* g_profile_exit_path = nullptr;

void WriteProfileAtExit() {
  if (g_profile_exit_path == nullptr) return;
  Profiler& prof = Profiler::Get();
  prof.Stop();
  const Status status = prof.WriteReport(*g_profile_exit_path);
  if (!status.ok()) {
    WIDEN_LOG(Error) << "profile export failed: " << status.message();
    return;
  }
  std::fprintf(stderr, "[profile] wrote %s; top ops by wall time:\n%s",
               g_profile_exit_path->c_str(), prof.FormatTopOps().c_str());
}

}  // namespace

void InstallProfileReportOnExit(const std::string& profile_out) {
  std::string path = profile_out;
  if (path.empty()) {
    const char* env = std::getenv("WIDEN_PROFILE");
    if (env != nullptr && env[0] != '\0') path = env;
  }
  if (path.empty()) return;
  WIDEN_CHECK(g_profile_exit_path == nullptr)
      << "InstallProfileReportOnExit called twice";
  g_profile_exit_path = new std::string(std::move(path));
  Profiler::Get().Start();
  std::atexit(WriteProfileAtExit);
}

}  // namespace widen::obs
