// Statistics, seeded draws and the saturated-throughput slices shared by every
// workload of the repo benchmark. Header-only so the workloads and the
// helper tests (tests/bench_util_test.cc) use one definition.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/random.h"

namespace perfbench {

/// Linear-interpolated percentile of `values`, `q` in [0, 1]; 0 when empty.
/// +infinity entries (failed requests counted as misses) sort last.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// A tail percentile is reported only where at least this many samples lie
/// beyond it.
inline constexpr double kTailBeyond = 10.0;

/// The highest of p99, p95, p90, p75 that leaves at least kTailBeyond of
/// `n` samples beyond it; the median when none does.
inline double TailQuantile(size_t n) {
  for (int percent : {99, 95, 90, 75}) {
    // n * (100 - percent) / 100 >= kTailBeyond, in exact integer arithmetic.
    if (static_cast<double>(n * static_cast<size_t>(100 - percent)) >=
        kTailBeyond * 100.0) {
      return percent / 100.0;
    }
  }
  return 0.5;
}

/// Samples per tail window. A window's tail is its TailQuantile percentile
/// (p95 at 200 samples, so kTailBeyond samples lie beyond it).
inline constexpr size_t kTailWindow = 200;

/// The tail of `values`, taken in arrival order: the median, over
/// consecutive `window`-sample windows, of each window's `q` percentile, so
/// a host stall moves the windows it falls in, not the reported tail. With
/// fewer than two windows' worth of samples it is the TailQuantile
/// percentile of all of them. `windows` receives the number of windows used.
inline double WindowedTail(const std::vector<double>& values, size_t window,
                           double q, size_t* windows = nullptr) {
  const size_t n_windows = values.size() / window;
  if (n_windows < 2) {
    if (windows != nullptr) *windows = 1;
    return Percentile(values, TailQuantile(values.size()));
  }
  std::vector<double> tails;
  for (size_t w = 0; w < n_windows; ++w) {
    tails.push_back(
        Percentile(std::vector<double>(values.begin() + w * window,
                                       values.begin() + (w + 1) * window),
                   q));
  }
  if (windows != nullptr) *windows = n_windows;
  return Percentile(tails, 0.5);
}

struct TimingSummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.5;  // which percentile `tail` is
  size_t windows = 1;   // windows the tail is the median over
  double tail = 0.0;
};

/// Median and windowed tail of `values` in arrival order, over windows of
/// `window` samples.
inline TimingSummary Summarize(const std::vector<double>& values,
                               size_t window = kTailWindow) {
  TimingSummary s;
  s.n = values.size();
  s.p50 = Percentile(values, 0.5);
  s.tail = WindowedTail(values, window, TailQuantile(window), &s.windows);
  s.tail_q = TailQuantile(s.windows > 1 ? window : values.size());
  return s;
}

/// SplitMix64 finalizer: derives independent per-stream seeds from the
/// workload seed, so each phase's inputs depend only on (seed, stream).
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Zipf(exponent) over ranks [0, n): P(rank r) ∝ 1 / (r + 1)^exponent.
/// Draws invert a precomputed CDF, so a given Rng state always yields the
/// same rank.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double exponent) : cdf_(static_cast<size_t>(n)) {
    double total = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[static_cast<size_t>(r)] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  int64_t Draw(widen::Rng& rng) const {
    const double u = rng.UniformDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<int64_t>(it - cdf_.begin(),
                             static_cast<int64_t>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Uniform draw over [0, n).
inline int64_t UniformIndex(int64_t n, widen::Rng& rng) {
  return static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
}

/// Samples per window of a serving p99 (the generator's lateness tail): p99
/// over 1,000 requests has kTailBeyond beyond it.
inline constexpr size_t kSloWindow = 1000;

// ---- saturated throughput ---------------------------------------------------

/// Counts completions in `num_slices` consecutive slices of `slice_ns` from
/// `start_ns` (completions outside them are not counted) and reports each
/// slice's rate per second. The median of the slices is a rate one slow
/// spell of the host does not move.
class SliceCounter {
 public:
  SliceCounter(int64_t start_ns, int64_t slice_ns, size_t num_slices)
      : start_ns_(start_ns), slice_ns_(slice_ns), counts_(num_slices, 0) {}

  void Add(int64_t t_ns) {
    if (t_ns < start_ns_) return;
    const auto slice = static_cast<size_t>((t_ns - start_ns_) / slice_ns_);
    if (slice < counts_.size()) ++counts_[slice];
  }

  std::vector<double> Rates() const {
    std::vector<double> rates;
    for (int64_t c : counts_) {
      rates.push_back(static_cast<double>(c) * 1e9 /
                      static_cast<double>(slice_ns_));
    }
    return rates;
  }

 private:
  int64_t start_ns_;
  int64_t slice_ns_;
  std::vector<int64_t> counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
