// Tests of the benchmark's own helpers: percentiles and the tail choice,
// seeded draws, the saturated-throughput slices, span self-time
// accounting, and the metric catalog behind BENCHMARK.json.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "metrics_catalog.h"
#include "spans.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.125), 1.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.99), 7.0);
}

TEST(PercentileTest, MissesCountedAsInfinitySortLast) {
  std::vector<double> v(98, 1.0);
  v.push_back(std::numeric_limits<double>::infinity());
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 1.0);
  EXPECT_TRUE(std::isinf(Percentile(v, 0.99)));
}

TEST(TailQuantileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantile(5000), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(1000), 0.99);  // exactly 10 beyond
  EXPECT_DOUBLE_EQ(TailQuantile(999), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(200), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(199), 0.90);
  EXPECT_DOUBLE_EQ(TailQuantile(100), 0.90);
  EXPECT_DOUBLE_EQ(TailQuantile(40), 0.75);
  EXPECT_DOUBLE_EQ(TailQuantile(39), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(20), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(0), 0.5);
}

TEST(TailQuantileTest, SummarizeReportsTheChosenTail) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const TimingSummary s = Summarize(v);  // one window: the plain tail
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.windows, 1u);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.90);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_NEAR(s.tail, 90.1, 1e-9);
}

TEST(DrawTest, ZipfIsDeterministicPerSeed) {
  const ZipfSampler zipf(1000, 1.0);
  widen::Rng a(MixSeed(7, 1)), b(MixSeed(7, 1)), c(MixSeed(8, 1));
  std::vector<int64_t> da, db, dc;
  for (int i = 0; i < 500; ++i) {
    da.push_back(zipf.Draw(a));
    db.push_back(zipf.Draw(b));
    dc.push_back(zipf.Draw(c));
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
  for (int64_t r : da) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 1000);
  }
}

TEST(DrawTest, ZipfFavorsLowRanks) {
  const ZipfSampler zipf(1000, 1.0);
  widen::Rng rng(3);
  int rank0 = 0, top10 = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const int64_t r = zipf.Draw(rng);
    rank0 += r == 0;
    top10 += r < 10;
  }
  // P(rank 0) = 1 / H(1000) ~ 0.134; P(rank < 10) ~ 0.39.
  EXPECT_NEAR(static_cast<double>(rank0) / draws, 0.134, 0.02);
  EXPECT_NEAR(static_cast<double>(top10) / draws, 0.39, 0.03);
}

TEST(DrawTest, UniformIsDeterministicPerSeedAndInRange) {
  widen::Rng a(MixSeed(5, 2)), b(MixSeed(5, 2));
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = UniformIndex(50, a);
    EXPECT_EQ(x, UniformIndex(50, b));
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 50);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_NE(MixSeed(5, 2), MixSeed(5, 3));
  EXPECT_NE(MixSeed(5, 2), MixSeed(6, 2));
}

TEST(TailQuantileTest, WindowedTailIsTheMedianOfWindowTails) {
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) v.push_back(w == 1 ? 1000.0 : i % 100);
  }
  size_t windows = 0;
  // p99 of 0..99 repeated ten times, the median of windows 0, 1, 2.
  EXPECT_NEAR(WindowedTail(v, 1000, 0.99, &windows), 98.01, 1e-9);
  EXPECT_EQ(windows, 3u);
  // Fewer than two windows: the plain tail percentile.
  std::vector<double> short_run(1500, 1.0);
  EXPECT_DOUBLE_EQ(WindowedTail(short_run, 1000, 0.99, &windows), 1.0);
  EXPECT_EQ(windows, 1u);
}

TEST(TailQuantileTest, SummarizeUsesP95OfTwoHundredSampleWindows) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 200);
  const TimingSummary s = Summarize(v);
  EXPECT_EQ(s.windows, 5u);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.95);
  const std::vector<double> first(v.begin(), v.begin() + 200);
  EXPECT_NEAR(s.tail, Percentile(first, 0.95), 1e-12);
  // A burst in one window does not move the tail.
  for (int i = 400; i < 600; ++i) v[static_cast<size_t>(i)] = 1e6;
  EXPECT_NEAR(Summarize(v).tail, s.tail, 1e-12);
}

TEST(SliceCounterTest, CountsCompletionsPerSlice) {
  // 1 ms slices from t = 1000 ns: 3, 0 and 2 completions; the ones before
  // the start and past the last slice are not counted.
  SliceCounter counter(1'000, 1'000'000, 3);
  for (int64_t t : {int64_t{500}, int64_t{1'000}, int64_t{2'000},
                    int64_t{999'999}, int64_t{2'100'000}, int64_t{2'500'000},
                    int64_t{3'001'000}}) {
    counter.Add(t);
  }
  const std::vector<double> rates = counter.Rates();
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 3000.0);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
  EXPECT_DOUBLE_EQ(rates[2], 2000.0);
}

TEST(SliceCounterTest, MedianIgnoresOneStalledSlice) {
  // 100 completions per 10 ms slice, except a stall that empties slice 3.
  SliceCounter counter(0, 10'000'000, 10);
  for (int64_t t = 0; t < 100'000'000; t += 100'000) {
    if (t / 10'000'000 != 3) counter.Add(t);
  }
  const std::vector<double> rates = counter.Rates();
  EXPECT_DOUBLE_EQ(rates[3], 0.0);
  EXPECT_DOUBLE_EQ(Percentile(rates, 0.5), 10'000.0);
}

TEST(TracerTest, SelfTimeSubtractsChildren) {
  Tracer t(true);
  // root [0, 100): a [10, 60) containing b [20, 40); c [70, 90).
  t.Add("b", "b", 20, 40, 0);
  t.Add("a", "a", 10, 60, 20);
  t.Add("c", "c", 70, 90, 0);
  t.Add(nullptr, "root", 0, 100, 90);
  EXPECT_NEAR(t.SelfFrac("a"), 0.30, 1e-12);
  EXPECT_NEAR(t.SelfFrac("b"), 0.20, 1e-12);
  EXPECT_DOUBLE_EQ(t.RootMs(), 100e-6);
  EXPECT_NEAR(t.UnattributedFrac(), 0.30, 1e-12);
  EXPECT_NEAR(t.SelfFrac("c"), 0.20, 1e-12);
  EXPECT_DOUBLE_EQ(t.SelfFrac("missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.TotalMs("a"), 50e-6);
}

TEST(TracerTest, ScopesNestAndDisabledTracerRecordsNothing) {
  Tracer t(true);
  {
    Tracer::Scope root(t, nullptr, "root");
    Tracer::Scope child(t, "layer", "work");
  }
  EXPECT_EQ(t.spans_recorded(), 2);
  EXPECT_GE(t.UnattributedFrac(), 0.0);
  EXPECT_LE(t.UnattributedFrac(), 1.0);
  Tracer off(false);
  { Tracer::Scope s(off, "layer", "work"); }
  EXPECT_EQ(off.spans_recorded(), 0);
  EXPECT_DOUBLE_EQ(off.UnattributedFrac(), 0.0);
}

// BENCHMARK.json's limits: names of at most 64 [A-Za-z0-9_.-] starting
// alphanumeric, units of at most 16 characters, 1-16 end-to-end metrics with
// bounds in (0, 0.25] and setup_s's the largest, 2-8 workloads.
TEST(CatalogTest, NamesUnitsAndBoundsFitBenchmarkJson) {
  std::set<std::string> names;
  int end_to_end = 0;
  bool has_setup = false;
  auto valid_name = [](const std::string& s) {
    if (s.empty() || s.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(s[0]))) {
      return false;
    }
    for (char ch : s) {
      if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_' &&
          ch != '.' && ch != '-') {
        return false;
      }
    }
    return true;
  };
  for (const MetricSpec& m : Metrics()) {
    EXPECT_TRUE(valid_name(m.name)) << m.name;
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    EXPECT_LE(std::string(m.unit).size(), 16u);
    EXPECT_TRUE(std::string(m.better) == "lower" ||
                std::string(m.better) == "higher");
    if (m.kind == MetricKind::kEndToEnd) {
      ++end_to_end;
      EXPECT_GT(m.bound, 0.0);
      EXPECT_LE(m.bound, 0.25);
      if (std::string(m.name) == "setup_s") {
        has_setup = true;
        EXPECT_STREQ(m.unit, "s");
        EXPECT_STREQ(m.better, "lower");
        for (const MetricSpec& other : Metrics()) {
          if (other.kind == MetricKind::kEndToEnd) {
            EXPECT_GE(m.bound, other.bound) << "setup_s has the largest bound";
          }
        }
      }
    }
  }
  EXPECT_TRUE(has_setup);
  EXPECT_GE(end_to_end, 1);
  EXPECT_LE(end_to_end, 16);
  EXPECT_GE(Workloads().size(), 2u);
  EXPECT_LE(Workloads().size(), 8u);
  for (const WorkloadSpec& w : Workloads()) {
    EXPECT_TRUE(valid_name(w.name));
    EXPECT_LE(std::string(w.why).size(), 200u);
  }
}

}  // namespace
}  // namespace perfbench
