// The single list of workloads and metrics the repo benchmark reports.
// BENCHMARK.json mirrors it (`widen_perfbench --print-spec` prints the
// entries), and every run is checked against it before its JSON is printed.

#ifndef PERFBENCH_METRICS_CATALOG_H_
#define PERFBENCH_METRICS_CATALOG_H_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  const char* why;  // one line: what it stresses and why it was chosen
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  MetricKind kind;
  double bound;        // end-to-end only: allowed worsening vs the parent
  const char* moves;   // per-layer: the end-to-end metric and workload it
                       // should move; end-to-end: its meaning per workload
};

const std::vector<MetricSpec>& Metrics();
const MetricSpec* FindMetric(const std::string& name);

/// One reported value. `samples` is the number of measurements behind it
/// (0 for counts and ratios taken once).
struct MetricValue {
  double value = 0.0;
  int64_t samples = 0;
};

/// What a workload run produced.
struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> failures;  // why `correct` is false
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, MetricValue> metrics;

  /// Records `name`, which must be in the catalog.
  void Set(const std::string& name, double value, int64_t samples = 0);
  /// Marks the run incorrect with a reason.
  void Fail(const std::string& reason);
};

/// BENCHMARK.json's "workloads", "end_to_end" and "per_layer" entries.
std::string SpecJson();

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_CATALOG_H_
