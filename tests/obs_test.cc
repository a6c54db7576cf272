// Tests for the observability layer: log-linear histogram exactness
// (bucket math, percentiles vs sorted-sample ground truth, concurrent
// records), the metrics registry, the trace recorder (sampling, ring
// wraparound, Chrome export, slow-query log), and an end-to-end span
// sweep through the serving pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/packed_codes.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "test_util.h"

namespace uhscm::obs {
namespace {

using index::PackedCodes;
using uhscm::testing::RandomSignCodes;

// Relative resolution bound of the log-linear histogram: one part in
// 2^kSubBucketBits, plus a hair of slack for the midpoint representative.
constexpr double kRelResolution = 1.0 / (1 << Histogram::kSubBucketBits);
constexpr double kRelTolerance = kRelResolution + 0.001;

// ---------------------------------------------------------------------
// Histogram bucket math

TEST(HistogramTest, LinearRegionIsExact) {
  // Values below 2^kSubBucketBits get one bucket each.
  for (int64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<int>(v)), v);
    EXPECT_EQ(Histogram::BucketUpperBound(static_cast<int>(v)), v + 1);
    EXPECT_EQ(Histogram::BucketRepresentative(static_cast<int>(v)), v);
  }
}

TEST(HistogramTest, BucketBoundariesAreContinuous) {
  // The linear/log seam and the octave seams: index is monotone
  // non-decreasing and steps by exactly one bucket at each boundary.
  EXPECT_EQ(Histogram::BucketIndex(31), 31);
  EXPECT_EQ(Histogram::BucketIndex(32), 32);
  EXPECT_EQ(Histogram::BucketIndex(63), 63);
  EXPECT_EQ(Histogram::BucketIndex(64), 64);
  int prev = Histogram::BucketIndex(0);
  for (int64_t v = 1; v < 8192; ++v) {
    const int bucket = Histogram::BucketIndex(v);
    EXPECT_GE(bucket, prev) << "v=" << v;
    EXPECT_LE(bucket, prev + 1) << "v=" << v;
    prev = bucket;
  }
  // Past unit stepping, still monotone non-decreasing.
  for (int64_t v = 8192; v < 1000000000; v = v * 17 / 16) {
    const int bucket = Histogram::BucketIndex(v);
    EXPECT_GE(bucket, prev) << "v=" << v;
    prev = bucket;
  }
}

TEST(HistogramTest, EveryValueFallsInsideItsBucketBounds) {
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform values across the full range.
    const int shift = static_cast<int>(rng.UniformInt(62));
    const int64_t v = static_cast<int64_t>(rng.NextU64() >> (63 - shift));
    const int bucket = Histogram::BucketIndex(v);
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, Histogram::kNumBuckets);
    if (bucket < Histogram::kNumBuckets - 1) {
      EXPECT_GE(v, Histogram::BucketLowerBound(bucket)) << "v=" << v;
      EXPECT_LT(v, Histogram::BucketUpperBound(bucket)) << "v=" << v;
    } else {
      // Last bucket absorbs everything at or past its lower bound.
      EXPECT_GE(v, Histogram::BucketLowerBound(bucket)) << "v=" << v;
    }
  }
}

TEST(HistogramTest, NegativesAndOverflowClamp) {
  EXPECT_EQ(Histogram::BucketIndex(-1), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::min()), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::max()),
            Histogram::kNumBuckets - 1);
  Histogram h;
  h.Record(-5);
  h.Record(std::numeric_limits<int64_t>::max());
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, 2u);
  EXPECT_EQ(snap.counts.front(), 1u);
  EXPECT_EQ(snap.counts.back(), 1u);
}

// ---------------------------------------------------------------------
// Recorded percentiles against sorted-sample ground truth

TEST(HistogramTest, PercentilesMatchSortedSamplesWithinResolution) {
  // The acceptance bound this whole design rests on: bucket percentiles
  // track pooled-sample percentiles within one bucket width (~3.1%
  // relative).
  Rng rng(202);
  constexpr int kSampleSets = 3;
  constexpr int kSamplesPerSet = 40000;
  Histogram histogram;
  std::vector<int64_t> pooled;
  pooled.reserve(kSampleSets * kSamplesPerSet);
  for (int s = 0; s < kSampleSets; ++s) {
    for (int i = 0; i < kSamplesPerSet; ++i) {
      // Log-uniform latencies from ~1us to ~100ms (in ns) with a
      // different scale per set, so no single set's buckets dominate
      // every percentile.
      const double log_min = 3.0 + s, log_max = 8.0;
      const int64_t v = static_cast<int64_t>(
          std::pow(10.0, rng.Uniform(log_min, log_max)));
      histogram.Record(v);
      pooled.push_back(v);
    }
  }
  const HistogramSnapshot snap = histogram.Snapshot();
  ASSERT_EQ(snap.total, static_cast<uint64_t>(pooled.size()));

  std::sort(pooled.begin(), pooled.end());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(p / 100.0 * static_cast<double>(pooled.size()))));
    const double truth = static_cast<double>(pooled[rank - 1]);
    const double got = static_cast<double>(snap.ValueAtPercentile(p));
    EXPECT_NEAR(got, truth, truth * kRelTolerance) << "p" << p;
  }
  // The mean is exact (sum and total both add exactly).
  double true_sum = 0.0;
  for (const int64_t v : pooled) true_sum += static_cast<double>(v);
  EXPECT_NEAR(snap.mean(), true_sum / pooled.size(),
              true_sum / pooled.size() * 1e-9);
}

TEST(HistogramTest, RecordNMatchesRepeatedRecord) {
  Histogram a, b;
  a.RecordN(12345, 1000);
  for (int i = 0; i < 1000; ++i) b.Record(12345);
  const HistogramSnapshot sa = a.Snapshot(), sb = b.Snapshot();
  EXPECT_EQ(sa.total, sb.total);
  EXPECT_EQ(sa.sum, sb.sum);
  EXPECT_EQ(sa.counts, sb.counts);
}

TEST(HistogramTest, ConcurrentRecordStressLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<int64_t>(rng.UniformInt(1 << 20)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_sum = 0;
  for (const uint64_t c : snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, snap.total) << "no record fell between buckets";
}

// ---------------------------------------------------------------------
// Registry

TEST(MetricsRegistryTest, StablePointersAndDumps) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("scan.rows_scanned");
  Gauge* g = reg.GetGauge("pipeline.queue_depth");
  Histogram* h = reg.GetHistogram("stage.scan_ns");
  EXPECT_EQ(reg.GetCounter("scan.rows_scanned"), c);
  EXPECT_EQ(reg.GetGauge("pipeline.queue_depth"), g);
  EXPECT_EQ(reg.GetHistogram("stage.scan_ns"), h);
  c->Add(42);
  g->Set(7);
  h->Record(1000);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"scan.rows_scanned\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.queue_depth\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"stage.scan_ns\""), std::string::npos);
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("scan.rows_scanned"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);

  const auto stages = reg.SnapshotHistograms("stage.");
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].first, "stage.scan_ns");
  EXPECT_EQ(stages[0].second.total, 1u);
  EXPECT_TRUE(reg.SnapshotHistograms("nope.").empty());

  reg.ResetAll();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(g->value(), 0);
  EXPECT_TRUE(h->Snapshot().empty());
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreateIsSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::array<Counter*, kThreads> seen{};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter* c = reg.GetCounter("shared.counter");
      c->Add(1);
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(seen[0]->value(), kThreads);
}

// ---------------------------------------------------------------------
// Trace recorder

TEST(TraceRecorderTest, SamplingOneInN) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder recorder;
  EXPECT_EQ(recorder.MaybeStartTrace(), 0u) << "sampling off by default";
  recorder.SetSampleEvery(4);
  int sampled = 0;
  std::set<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = recorder.MaybeStartTrace();
    if (id != 0) {
      ++sampled;
      EXPECT_TRUE(ids.insert(id).second) << "trace ids must be unique";
    }
  }
  EXPECT_EQ(sampled, 25);
  recorder.SetSampleEvery(0);
  EXPECT_EQ(recorder.MaybeStartTrace(), 0u);
}

TEST(TraceRecorderTest, RuntimeKillSwitchStopsSampling) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder recorder;
  recorder.SetSampleEvery(1);
  SetRuntimeEnabled(false);
  EXPECT_EQ(recorder.MaybeStartTrace(), 0u);
  SetRuntimeEnabled(true);
  EXPECT_NE(recorder.MaybeStartTrace(), 0u);
}

TEST(TraceRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder recorder(/*capacity=*/4);
  for (int i = 1; i <= 6; ++i) {
    recorder.RecordSpan(/*trace_id=*/static_cast<uint64_t>(i),
                        /*span_id=*/static_cast<uint64_t>(i),
                        /*parent_id=*/0, "request", /*start_us=*/i * 10,
                        /*end_us=*/i * 10 + 5);
  }
  EXPECT_EQ(recorder.size(), 4u);
  const std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Spans 1 and 2 were overwritten; 3..6 remain, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<size_t>(i)].trace_id,
              static_cast<uint64_t>(i + 3));
  }
  recorder.Reset();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceRecorderTest, UnsampledSpansAreDropped) {
  TraceRecorder recorder;
  recorder.RecordSpan(/*trace_id=*/0, 1, 0, "request", 0, 10);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceRecorderTest, ChromeTraceExportAndSlowQueryLog) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder recorder;
  recorder.RecordSpan(1, 1, 0, "request", 0, 20000, {{"k", 10}});
  recorder.RecordSpan(1, 2, 1, "scan", 2000, 15000, {{"shards", 4}});
  recorder.RecordSpan(2, 3, 0, "request", 100, 600);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  // Structural spot checks; CI additionally runs the file through a real
  // JSON parser.
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"shards\": 4"), std::string::npos);
  std::remove(path.c_str());

  // Slow-query log: only root spans, slowest first, threshold applied.
  const std::vector<SpanRecord> slow = recorder.SlowSpans(1.0, 10);
  ASSERT_EQ(slow.size(), 1u) << "scan is a child; request #2 is fast";
  EXPECT_EQ(slow[0].trace_id, 1u);
  const std::string log = recorder.SlowQueryLog(0.0, 10);
  EXPECT_NE(log.find("slow-query trace=1"), std::string::npos);
  EXPECT_NE(log.find("dur_ms=20.000"), std::string::npos);
  EXPECT_EQ(recorder.SlowSpans(100.0, 10).size(), 0u);
}

TEST(ScopedSpanTest, RecordsOnlyWhenParentSampled) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder recorder;
  {
    TraceContext unsampled;
    ScopedSpan span(&recorder, unsampled, "batch");
    span.AddAttr("size", 8);
  }
  EXPECT_EQ(recorder.size(), 0u);

  TraceContext root;
  root.trace_id = 9;
  root.parent_span = recorder.NewSpanId();
  uint64_t inner_id = 0;
  {
    ScopedSpan outer(&recorder, root, "search");
    outer.AddAttr("queries", 3);
    {
      ScopedSpan inner(&recorder, outer.context(), "scan");
      inner_id = inner.context().parent_span;
    }
  }
  const std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Children record before parents (RAII unwind): scan first.
  EXPECT_STREQ(spans[0].name, "scan");
  EXPECT_STREQ(spans[1].name, "search");
  EXPECT_EQ(spans[0].span_id, inner_id);
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id) << "scan under search";
  EXPECT_EQ(spans[1].parent_id, root.parent_span);
  EXPECT_EQ(spans[0].trace_id, 9u);
  ASSERT_EQ(spans[1].num_attrs, 1);
  EXPECT_STREQ(spans[1].attrs[0].key, "queries");
  EXPECT_EQ(spans[1].attrs[0].value, 3);
}

// ---------------------------------------------------------------------
// Stage histograms + end-to-end pipeline spans

TEST(TraceRecorderTest, SpansFeedStageHistograms) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder recorder(/*capacity=*/2);
  Histogram* stage =
      MetricsRegistry::Global().GetHistogram("stage.unittest-stage_ns");
  stage->Reset();
  // 10 spans through a capacity-2 ring: the histogram keeps all 10.
  for (int i = 0; i < 10; ++i) {
    recorder.RecordSpan(1, static_cast<uint64_t>(i + 1), 0, "unittest-stage",
                        0, 1000);
  }
  EXPECT_EQ(recorder.size(), 2u);
  const HistogramSnapshot snap = stage->Snapshot();
  EXPECT_EQ(snap.total, 10u);
  // 1000us = 1e6 ns, within one bucket of resolution.
  EXPECT_NEAR(static_cast<double>(snap.ValueAtPercentile(50.0)), 1e6,
              1e6 * kRelTolerance);
}

TEST(PipelineTraceTest, EndToEndSpanVocabulary) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  Rng rng(77);
  const PackedCodes corpus =
      PackedCodes::FromSignMatrix(RandomSignCodes(300, 64, &rng));
  const PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(32, 64, &rng));

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Reset();
  recorder.SetSampleEvery(1);

  {
    serve::ReplicaSet replica_set(io::CodesSnapshot{corpus},
                                  serve::ReplicaSetOptions{});
    serve::Router router(&replica_set);
    serve::BatcherOptions batcher_options;
    batcher_options.max_batch = 8;
    batcher_options.timeout_us = 200;
    serve::Batcher batcher(&router, batcher_options);
    std::vector<std::future<serve::SearchResponse>> futures;
    for (int q = 0; q < queries.size(); ++q) {
      futures.push_back(batcher.Submit(queries, q, /*k=*/5));
    }
    for (auto& future : futures) ASSERT_TRUE(future.get().status.ok());
    batcher.Drain();
  }
  recorder.SetSampleEvery(0);

  std::set<std::string> names;
  uint64_t admit_parent = 0, request_id = 0;
  for (const SpanRecord& s : recorder.Snapshot()) {
    names.insert(s.name);
    if (std::string(s.name) == "admit") admit_parent = s.parent_id;
    if (std::string(s.name) == "request") request_id = s.span_id;
  }
  // The full per-request vocabulary from admission to merge.
  for (const char* required :
       {"request", "admit", "batch", "search", "cache-lookup", "scan",
        "shard-scan", "merge"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }
  // Spans form a tree: every admit hangs under some request root.
  EXPECT_NE(admit_parent, 0u);
  EXPECT_NE(request_id, 0u);
}

}  // namespace
}  // namespace uhscm::obs
