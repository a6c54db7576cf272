// Tests of the benchmark's own helpers: the Poisson schedule, the Zipf
// sampler, the percentile rule, span self time, the registry reader and
// the result line.
#include "bench_lib.h"

#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

namespace uhscm_bench {
namespace {

TEST(PoissonSchedule, SameSeedSameTimes) {
  EXPECT_EQ(PoissonSchedule(1000.0, 2.0, 7), PoissonSchedule(1000.0, 2.0, 7));
  EXPECT_NE(PoissonSchedule(1000.0, 2.0, 7), PoissonSchedule(1000.0, 2.0, 8));
}

TEST(PoissonSchedule, RateAndGapsMatchTheProcess) {
  const double rate = 2000.0, seconds = 20.0;
  const std::vector<double> t = PoissonSchedule(rate, seconds, 3);
  // Count ~ Poisson(40000): within 1% is > 4 standard deviations.
  EXPECT_NEAR(static_cast<double>(t.size()), rate * seconds, 0.01 * rate * seconds);
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    ASSERT_GE(t[i], 0.0);
    ASSERT_LT(t[i], seconds);
    const double gap = t[i] - (i == 0 ? 0.0 : t[i - 1]);
    ASSERT_GE(gap, 0.0);
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / t.size();
  const double var = sum_sq / t.size() - mean * mean;
  // Exponential gaps: mean 1/rate, coefficient of variation 1.
  EXPECT_NEAR(mean, 1.0 / rate, 0.02 / rate);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.03);
}

TEST(PoissonSchedule, EmptyForZeroRate) {
  EXPECT_TRUE(PoissonSchedule(0.0, 5.0, 1).empty());
}

TEST(ZipfSampler, FollowsPowerLaw) {
  const int n = 1000;
  ZipfSampler zipf(n, 1.0);
  std::mt19937_64 gen(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<int> counts(n, 0);
  const int draws = 400000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.Sample(u(gen))];
  double h = 0.0;
  for (int r = 1; r <= n; ++r) h += 1.0 / r;
  // Rank 0 gets 1/H_n of the draws, rank 1 half of that.
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 1.0 / h, 0.005);
  EXPECT_NEAR(counts[1] / static_cast<double>(counts[0]), 0.5, 0.03);
  EXPECT_NEAR(zipf.HeadShare(10), [&] {
    double s = 0.0;
    for (int r = 1; r <= 10; ++r) s += 1.0 / r;
    return s / h;
  }(), 1e-9);
  EXPECT_DOUBLE_EQ(zipf.HeadShare(n), 1.0);
}

TEST(ZipfSampler, StaysInRange) {
  ZipfSampler zipf(5, 1.2);
  EXPECT_EQ(zipf.Sample(0.0), 0);
  EXPECT_EQ(zipf.Sample(0.999999999), 4);
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestReportablePercentile(50), 50.0);
  EXPECT_EQ(HighestReportablePercentile(99), 50.0);
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(999), 90.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
  EXPECT_EQ(HighestReportablePercentile(100000), 99.99);
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(PercentileOf(v, 50.0), 500.0);
  EXPECT_EQ(PercentileOf(v, 90.0), 900.0);
  EXPECT_EQ(PercentileOf(v, 99.0), 990.0);
  EXPECT_EQ(PercentileOf(v, 100.0), 1000.0);
}

TEST(PercentileRule, FailuresMissEveryLimit) {
  std::vector<double> v(990, 1.0);
  for (int i = 0; i < 10; ++i) v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_EQ(PercentileOf(v, 99.0), 1.0);
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(PercentileOf(v, 99.0)));
}

TEST(BestWindowRate, TakesTheBusiestWholeWindow) {
  // Completions in any order: 3 in [0.2, 0.3), 5 in [0.3, 0.4), 1 in
  // [0.4, 0.5); the one at 0.55 is in no whole window, the one at 0.1
  // is before `from`. Two CPUs, both busy all the time.
  const std::vector<double> done = {0.35, 0.21, 0.31, 0.55, 0.1, 0.25,
                                    0.32, 0.45, 0.33, 0.29, 0.39};
  const CpuSamples busy = {{0.0, 0.0}, {1.0, 2.0}};
  EXPECT_NEAR(BestWindowRate(done, 0.2, 0.55, 0.1, busy, 2), 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(BestWindowRate(done, 0.2, 0.25, 0.1, busy, 2), 0.0);
  EXPECT_DOUBLE_EQ(BestWindowRate({}, 0.0, 1.0, 0.5, busy, 2), 0.0);
  // The host took half the vCPU time in [0.3, 0.4): its 5 completions
  // came in 0.1 CPU-seconds, so the window rate is 100 per whole second
  // of both CPUs.
  const CpuSamples stolen = {{0.0, 0.0}, {0.3, 0.6}, {0.4, 0.7}, {1.0, 1.9}};
  EXPECT_NEAR(BestWindowRate(done, 0.2, 0.55, 0.1, stolen, 2), 100.0, 1e-9);
  // Windows the samples do not cover are skipped.
  EXPECT_DOUBLE_EQ(BestWindowRate(done, 0.2, 0.55, 0.1, {}, 2), 0.0);
}

TEST(CpuSecondsBetween, InterpolatesBetweenSamples) {
  const CpuSamples s = {{0.0, 1.0}, {1.0, 3.0}, {2.0, 4.0}};
  EXPECT_NEAR(CpuSecondsBetween(s, 0.5, 1.5), 1.5, 1e-12);
  EXPECT_NEAR(CpuSecondsBetween(s, 0.0, 2.0), 3.0, 1e-12);
  EXPECT_EQ(CpuSecondsBetween(s, -0.1, 1.0), -1.0);
  EXPECT_EQ(CpuSecondsBetween(s, 1.0, 2.5), -1.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  SpanRecorder rec(true);
  const uint64_t root = rec.NewId();
  rec.RecordWithId(root, "serve.request", 0, 100);
  rec.Record("serve.submit", 10, 30, root);
  rec.Record("loadgen.late", 20, 40, root);  // overlaps the first child
  rec.Record("index.scan", 90, 120, root);   // clipped to the parent
  const auto self = LayerSelfSeconds(rec.spans());
  EXPECT_NEAR(self.at("serve"), (100 - 30 - 10 + 20) * 1e-9, 1e-15);
  EXPECT_NEAR(self.at("loadgen"), 20e-9, 1e-15);
  EXPECT_NEAR(self.at("index"), 30e-9, 1e-15);
}

TEST(Spans, DisabledRecorderKeepsNothing) {
  SpanRecorder rec(false);
  EXPECT_EQ(rec.Record("a.b", 0, 1), 0u);
  { ScopedSpan s(&rec, "a.c"); }
  EXPECT_EQ(rec.size(), 0u);
}

TEST(RegistryValue, ReadsScalarsAndReportsAbsence) {
  const std::string dump =
      "{\n  \"counters\": {\n    \"join.tiles\": 42\n  },\n  \"gauges\": "
      "{\n    \"cache.hits\": 7\n  },\n  \"histograms\": {}\n}\n";
  double v = 0.0;
  ASSERT_TRUE(RegistryValue(dump, "join.tiles", &v));
  EXPECT_EQ(v, 42.0);
  ASSERT_TRUE(RegistryValue(dump, "cache.hits", &v));
  EXPECT_EQ(v, 7.0);
  EXPECT_FALSE(RegistryValue(dump, "cache.misses", &v));
}

TEST(Report, ResultLineHasExactlyTheContractKeys) {
  Report r;
  r.Add("latency_ms", 1.25, "ms");
  r.Add("setup_s", 0.5, "s");
  EXPECT_EQ(r.ResultLine(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(Report, FailedSubPhaseMakesTheRunIncorrect) {
  // One failure in a sub-phase: the p50 stays finite, but the sub-phase
  // fails the all-finite check the run applies to fixed-rate sub-phases.
  std::vector<double> one_failed(999, 0.4);
  one_failed.push_back(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(AllFinite(one_failed));
  EXPECT_TRUE(AllFinite(std::vector<double>(1000, 0.4)));
  // Most requests failed: the p50 itself is +infinity, and the result line
  // says correct: false even if every output check passed.
  std::vector<double> mostly_failed(400, 0.4);
  mostly_failed.resize(1000, std::numeric_limits<double>::infinity());
  Report r;
  r.Add("read_p50_ms.low", PercentileOf(mostly_failed, 50.0), "ms");
  EXPECT_FALSE(r.AllFinite());
  EXPECT_EQ(r.ResultLine(true, 1000, 600),
            "{\"correct\": false, \"attempted\": 1000, \"failed\": 600, "
            "\"metrics\": {\"read_p50_ms.low\": {\"value\": -1, \"unit\": "
            "\"ms\"}}}");
}

}  // namespace
}  // namespace uhscm_bench
