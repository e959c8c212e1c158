// The repo benchmark's one command (README.md):
//
//   widen_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--workdir DIR]
//   widen_perfbench --print-spec
//
// Runs one workload built from the seed, checks its outputs, prints the
// provenance, every metric with its unit and sample count, and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones from the traced run. A failed check prints the reasons and
// a result without metrics, and exits 1.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "metrics_catalog.h"
#include "obs/memprof.h"
#include "tensor/simd/simd.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

void Provenance(const std::string& key, const std::string& value) {
  std::printf("config %s = %s\n", key.c_str(), value.c_str());
}

void Provenance(const std::string& key, double value) {
  std::printf("config %s = %.10g\n", key.c_str(), value);
}

double PeakRssMb() {
  return static_cast<double>(widen::obs::ReadPeakRssBytes()) / (1 << 20);
}

std::string TracePath(const RunArgs& args) {
  return args.workdir + "/trace_" + args.workload + "_seed" +
         std::to_string(args.seed) + ".json";
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: widen_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n"
               "       widen_perfbench --print-spec\n");
  return 2;
}

void PrintResult(const RunArgs& args, WorkloadResult& result) {
  const MetricKind kind =
      args.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  std::string json = "{";
  bool first = true;
  for (const MetricSpec& spec : Metrics()) {
    if (spec.kind != kind) continue;
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      // A per-layer metric the workload never set belongs to a layer that
      // does no work on it: its time and counts are 0.
      WIDEN_CHECK(kind == MetricKind::kPerLayer)
          << "end-to-end metric " << spec.name << " not measured";
      it = result.metrics.emplace(spec.name, MetricValue{0.0, 0}).first;
    }
    const MetricValue& v = it->second;
    std::printf("metric %-36s %16.6f %-8s n=%-7lld %s\n", spec.name, v.value,
                spec.unit, static_cast<long long>(v.samples), spec.moves);
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, v.value, spec.unit);
    json += entry;
    first = false;
  }
  json += "}";
  std::printf(
      "{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), json.c_str());
}

int Main(int argc, char** argv) {
  RunArgs args;
  args.workdir = ".";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-spec") {
      std::printf("%s", SpecJson().c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* workload = FindWorkload(args.workload);
  if (workload == nullptr || args.seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  args.trace = trace == 1;
  const widen::Status dir = widen::EnsureDirectory(args.workdir);
  if (!dir.ok()) {
    std::fprintf(stderr, "workdir: %s\n", dir.ToString().c_str());
    return 2;
  }

  Provenance("workload", args.workload);
  Provenance("why", workload->why);
  Provenance("seed", static_cast<double>(args.seed));
  Provenance("seconds", args.seconds);
  Provenance("trace", args.trace ? "1" : "0");
  Provenance("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  Provenance("simd_isa",
             widen::tensor::simd::IsaName(widen::tensor::simd::ActiveIsa()));
  std::fflush(stdout);

  WorkloadResult result;
  if (args.workload == "train") {
    result = RunTrain(args);
  } else if (args.workload == "serve_hot") {
    result = RunServe(args);
  } else {
    result = RunOoc(args);
  }
  if (args.trace) Provenance("trace_file", TracePath(args));

  if (!result.correct) {
    for (const std::string& reason : result.failures) {
      std::printf("CHECK FAILED: %s\n", reason.c_str());
    }
    std::printf(
        "{\"correct\": false, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {}}\n",
        static_cast<long long>(result.attempted),
        static_cast<long long>(result.failed));
    return 1;
  }
  PrintResult(args, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
