#include "spans.h"

#include <cstdio>

#include "util/file_util.h"
#include "util/logging.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* layer, const char* name,
                     uint64_t request)
    : tracer_(tracer.enabled_ ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  depth_ = tracer_->stack_.size();
  tracer_->stack_.push_back(Open{layer, name, request, NowNs(), 0});
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->Close(depth_);
}

void Tracer::Close(size_t depth) {
  WIDEN_CHECK_EQ(stack_.size(), depth + 1) << "spans closed out of order";
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t end_ns = NowNs();
  if (!stack_.empty()) stack_.back().child_ns += end_ns - open.start_ns;
  Add(open.layer, open.name, open.start_ns, end_ns, open.child_ns,
      open.request);
}

void Tracer::Add(const char* layer, const char* name, int64_t start_ns,
                 int64_t end_ns, int64_t child_ns, uint64_t request) {
  if (!enabled_) return;
  ++recorded_;
  const int64_t duration = end_ns - start_ns;
  total_ns_by_name_[name] += duration;
  if (layer == nullptr) {
    // Roots set the end-to-end denominator only when they are outermost.
    if (stack_.empty()) root_ns_ += duration;
  } else {
    self_ns_[layer] += duration - child_ns;
  }
  if (kept_.size() < max_kept_) {
    kept_.push_back(Kept{layer, name, request, start_ns, end_ns,
                         static_cast<uint32_t>(stack_.size())});
  }
}

namespace {

int64_t SumMatching(const std::unordered_map<const char*, int64_t>& sums,
                    const std::string& key) {
  int64_t total = 0;
  for (const auto& [k, ns] : sums) {
    if (key == k) total += ns;
  }
  return total;
}

}  // namespace

double Tracer::TotalMs(const std::string& name) const {
  return static_cast<double>(SumMatching(total_ns_by_name_, name)) / 1e6;
}

double Tracer::SelfFrac(const std::string& layer) const {
  if (root_ns_ <= 0) return 0.0;
  return static_cast<double>(SumMatching(self_ns_, layer)) /
         static_cast<double>(root_ns_);
}

double Tracer::UnattributedFrac() const {
  if (root_ns_ <= 0) return 0.0;
  int64_t attributed = 0;
  for (const auto& [layer, ns] : self_ns_) attributed += ns;
  return 1.0 - static_cast<double>(attributed) / static_cast<double>(root_ns_);
}

widen::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::string out = "{\"traceEvents\": [\n";
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"request\": %llu}}%s\n",
                  k.name, k.layer != nullptr ? k.layer : "end_to_end",
                  static_cast<double>(k.start_ns - origin) / 1e3,
                  static_cast<double>(k.end_ns - k.start_ns) / 1e3, k.depth,
                  static_cast<unsigned long long>(k.request),
                  i + 1 < kept_.size() ? "," : "");
    out += line;
  }
  out += "],\n\"spans_recorded\": " + std::to_string(recorded_) +
         ", \"spans_kept\": " + std::to_string(kept_.size()) + "}\n";
  return widen::WriteStringToFile(path, out);
}

}  // namespace perfbench
