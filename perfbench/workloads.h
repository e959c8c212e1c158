// Entry points of the four workloads and the plumbing they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "metrics_catalog.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // --trace 1: per-layer metrics instead
  std::string workdir;    // working files: checkpoints, shard stores, traces
};

WorkloadResult RunTrain(const RunArgs& args);
WorkloadResult RunServe(const RunArgs& args);
WorkloadResult RunOoc(const RunArgs& args);

/// Prints one provenance line ("config <key> = <value>") to stdout.
void Provenance(const std::string& key, const std::string& value);
void Provenance(const std::string& key, double value);

/// Process VmHWM in MB.
double PeakRssMb();

/// Path of the Chrome trace a traced run writes for `args`.
std::string TracePath(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
