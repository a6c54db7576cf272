// Async request pipeline: admission queue, adaptive batcher searching
// the engine, and the drain/shutdown protocol. The load-bearing
// invariants:
//   * every future handed out resolves — with results or a shutdown
//     Status, never silently dropped;
//   * pipeline results are byte-identical to synchronous
//     QueryEngine::Search on the same corpus at the same epoch, under
//     any batch shape and update interleaving;
//   * flush reasons follow the B-or-T contract (B-exact flushes count
//     as by-size, stragglers flush by timeout).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/packed_codes.h"
#include "serve/batcher.h"
#include "serve/replica_set.h"
#include "serve/request_queue.h"
#include "serve/router.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace uhscm::serve {
namespace {

using index::Neighbor;
using index::PackedCodes;
using uhscm::testing::RandomSignCodes;

PackedCodes RandomCorpus(int n, int bits, uint64_t seed) {
  Rng rng(seed);
  return PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
}

void ExpectSameNeighbors(const std::vector<Neighbor>& expect,
                         const std::vector<Neighbor>& got) {
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].id, got[i].id) << "rank " << i;
    EXPECT_EQ(expect[i].distance, got[i].distance) << "rank " << i;
  }
}

// ---------------------------------------------------------------------
// RequestQueue

TEST(RequestQueueTest, SubmitCollectPreservesOrderAndDepth) {
  RequestQueue queue(64);
  PackedCodes queries = RandomCorpus(5, 64, 11);
  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < queries.size(); ++q) {
    futures.push_back(queue.Submit(queries.code(q), 1, 7));
  }
  EXPECT_EQ(queue.depth(), 5u);

  std::vector<PendingRequest> batch;
  ASSERT_TRUE(
      queue.CollectBatch(5, std::chrono::microseconds(1000), &batch));
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(queue.depth(), 0u);
  for (int q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batch[static_cast<size_t>(q)].words[0], *queries.code(q));
    EXPECT_EQ(batch[static_cast<size_t>(q)].k, 7);
  }
}

TEST(RequestQueueTest, TrySubmitReportsFullQueue) {
  RequestQueue queue(2);
  const uint64_t word = 42;
  std::future<SearchResponse> f1, f2, f3;
  EXPECT_TRUE(queue.TrySubmit(&word, 1, 1, &f1));
  EXPECT_TRUE(queue.TrySubmit(&word, 1, 1, &f2));
  EXPECT_FALSE(queue.TrySubmit(&word, 1, 1, &f3)) << "capacity 2 exceeded";
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(RequestQueueTest, ShutdownWithNonEmptyQueueFailsEveryPending) {
  // The deterministic half of the drain protocol: requests still queued
  // at shutdown complete with the shutdown status — none dropped.
  RequestQueue queue(16);
  const uint64_t word = 7;
  std::vector<std::future<SearchResponse>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(queue.Submit(&word, 1, 3));
  queue.Close();
  EXPECT_EQ(queue.FailPending(Status::Unavailable("drained")), 5);
  for (std::future<SearchResponse>& future : futures) {
    const SearchResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(response.neighbors.empty());
  }
  // Post-close submissions are rejected immediately, already resolved.
  std::future<SearchResponse> late = queue.Submit(&word, 1, 3);
  EXPECT_EQ(late.get().status.code(), StatusCode::kUnavailable);
  // Collector sees a closed, drained queue and exits.
  std::vector<PendingRequest> batch;
  EXPECT_FALSE(queue.CollectBatch(4, std::chrono::microseconds(10), &batch));
}

// ---------------------------------------------------------------------
// Batcher flush contract

struct Pipeline {
  Pipeline(const PackedCodes& corpus, const BatcherOptions& batcher_options) {
    replica_set = std::make_unique<ReplicaSet>(io::CodesSnapshot{corpus},
                                               ReplicaSetOptions{});
    router = std::make_unique<Router>(replica_set.get());
    batcher = std::make_unique<Batcher>(router.get(), batcher_options);
  }
  std::unique_ptr<ReplicaSet> replica_set;
  std::unique_ptr<Router> router;
  std::unique_ptr<Batcher> batcher;
};

TEST(BatcherTest, BExactFlushCountsAsBySize) {
  const PackedCodes corpus = RandomCorpus(200, 64, 21);
  BatcherOptions options;
  options.max_batch = 8;
  options.timeout_us = 60L * 1000 * 1000;  // T can't fire in this test
  Pipeline pipeline(corpus, options);

  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 8; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5));
  }
  for (std::future<SearchResponse>& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_EQ(stats.queries, 8);
  EXPECT_EQ(stats.batches_flushed_by_size, 1)
      << "exactly B requests must flush as one by-size batch";
  EXPECT_EQ(stats.batches_flushed_by_timeout, 0);
  EXPECT_EQ(stats.batch_size_hist[static_cast<size_t>(BatchSizeBucket(8))],
            1);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(BatcherTest, SingleStragglerFlushesByTimeout) {
  const PackedCodes corpus = RandomCorpus(200, 64, 22);
  BatcherOptions options;
  options.max_batch = 64;  // B can't fire with one request
  options.timeout_us = 2000;
  Pipeline pipeline(corpus, options);

  std::future<SearchResponse> future = pipeline.batcher->Submit(corpus, 0, 5);
  const SearchResponse response = future.get();  // resolves despite B >> 1
  ASSERT_TRUE(response.status.ok());
  ExpectSameNeighbors(
      pipeline.replica_set->engine()->SearchOne(corpus.code(0), 5),
      response.neighbors);

  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_EQ(stats.batches_flushed_by_timeout, 1);
  EXPECT_EQ(stats.batches_flushed_by_size, 0);
  EXPECT_EQ(stats.batch_size_hist[static_cast<size_t>(BatchSizeBucket(1))],
            1);
}

TEST(BatcherTest, MalformedWordCountRejectedUpFront) {
  const PackedCodes corpus = RandomCorpus(50, 128, 23);  // 2 words/code
  Pipeline pipeline(corpus, {});
  const uint64_t one_word = 5;
  std::future<SearchResponse> future =
      pipeline.batcher->Submit(&one_word, 1, 3);
  EXPECT_EQ(future.get().status.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Byte-identity with the synchronous path

// Batch shapes (B, T µs): one query per flush, the CLI-sized default
// region, and batches wider than the stream's per-k groups.
class PipelineIdentitySweep
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(PipelineIdentitySweep, MatchesSynchronousSearch) {
  const auto [max_batch, timeout_us] = GetParam();
  const int n = 400, bits = 128;
  const PackedCodes corpus = RandomCorpus(n, bits, 31);
  const PackedCodes queries = RandomCorpus(60, bits, 32);

  // Synchronous reference engine over the same corpus.
  auto reference = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                corpus.words()),
      {});

  BatcherOptions options;
  options.max_batch = max_batch;
  options.timeout_us = timeout_us;
  Pipeline pipeline(corpus, options);

  // Mixed k across the stream: exercises the per-k grouping inside one
  // flush.
  std::vector<std::future<SearchResponse>> futures;
  std::vector<int> ks;
  for (int q = 0; q < queries.size(); ++q) {
    const int k = 1 + (q % 3) * 7;  // 1, 8, 15, 1, 8, ...
    ks.push_back(k);
    futures.push_back(pipeline.batcher->Submit(queries, q, k));
  }
  for (int q = 0; q < queries.size(); ++q) {
    SearchResponse response = futures[static_cast<size_t>(q)].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ExpectSameNeighbors(
        reference->SearchOne(queries.code(q), ks[static_cast<size_t>(q)]),
        response.neighbors);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchShapes, PipelineIdentitySweep,
    ::testing::Values(std::make_tuple(1, int64_t{50}),
                      std::make_tuple(16, int64_t{300}),
                      std::make_tuple(64, int64_t{2000})));

TEST(BatcherTest, ConcurrentSubmitDuringFlushAllResolveCorrectly) {
  const int n = 500, bits = 64, k = 10;
  const PackedCodes corpus = RandomCorpus(n, bits, 41);
  const PackedCodes queries = RandomCorpus(48, bits, 42);
  auto reference = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                corpus.words()),
      {});
  std::vector<std::vector<Neighbor>> expect;
  for (int q = 0; q < queries.size(); ++q) {
    expect.push_back(reference->SearchOne(queries.code(q), k));
  }

  BatcherOptions options;
  options.max_batch = 8;  // many flushes while submissions keep landing
  options.timeout_us = 100;
  Pipeline pipeline(corpus, options);

  constexpr int kThreads = 8, kRounds = 4;
  std::vector<std::thread> submitters;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::pair<int, std::future<SearchResponse>>> futures;
        for (int q = t; q < queries.size(); q += kThreads) {
          futures.emplace_back(q,
                               pipeline.batcher->Submit(queries, q, k));
        }
        for (auto& [q, future] : futures) {
          SearchResponse response = future.get();
          if (!response.status.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          const std::vector<Neighbor>& want =
              expect[static_cast<size_t>(q)];
          if (response.neighbors.size() != want.size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t i = 0; i < want.size(); ++i) {
            if (response.neighbors[i].id != want[i].id ||
                response.neighbors[i].distance != want[i].distance) {
              mismatches.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_EQ(stats.queries, kThreads * kRounds * (48 / kThreads));
}

// ---------------------------------------------------------------------
// Drain / shutdown

TEST(BatcherTest, DrainResolvesEveryFutureAndRejectsNewWork) {
  const PackedCodes corpus = RandomCorpus(300, 64, 51);
  BatcherOptions options;
  options.max_batch = 1 << 20;  // size flush unreachable
  options.timeout_us = 60L * 1000 * 1000;  // timeout flush unreachable
  Pipeline pipeline(corpus, options);

  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 32; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5));
  }
  pipeline.batcher->Drain();

  // Every future resolves: either served (the flush thread had already
  // collected it into its in-hand batch) or failed with the shutdown
  // status — never dropped, never pending.
  int served = 0, rejected = 0;
  for (int q = 0; q < 32; ++q) {
    ASSERT_EQ(futures[static_cast<size_t>(q)].wait_for(
                  std::chrono::seconds(30)),
              std::future_status::ready)
        << "drain left future " << q << " unresolved";
    SearchResponse response = futures[static_cast<size_t>(q)].get();
    if (response.status.ok()) {
      ++served;
      ExpectSameNeighbors(
          pipeline.replica_set->engine()->SearchOne(corpus.code(q), 5),
          response.neighbors);
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(served + rejected, 32);

  // New work after the drain is rejected, not queued forever.
  std::future<SearchResponse> late = pipeline.batcher->Submit(corpus, 0, 5);
  EXPECT_EQ(late.get().status.code(), StatusCode::kUnavailable);
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_EQ(stats.rejected_requests, rejected + 1);
  pipeline.batcher->Drain();  // idempotent
}

TEST(QueryEngineTest, SearchAfterDrainServesInline) {
  const PackedCodes corpus = RandomCorpus(250, 64, 52);
  auto engine = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                corpus.words()),
      {});
  const std::vector<Neighbor> expect = engine->SearchOne(corpus.code(0), 4);
  engine->Drain();
  engine->Drain();  // idempotent
  // The drained pool runs the scan and merge loops inline.
  ExpectSameNeighbors(expect, engine->SearchOne(corpus.code(0), 4));
}

TEST(ThreadPoolTest, DrainKeepsParallelForCorrect) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(64);
  pool.ParallelFor(64, [&](int i) { counts[static_cast<size_t>(i)]++; });
  pool.Drain();
  pool.Drain();  // idempotent
  pool.ParallelFor(64, [&](int i) { counts[static_cast<size_t>(i)]++; });
  for (const std::atomic<int>& c : counts) EXPECT_EQ(c.load(), 2);
}

TEST(PipelineIdentityTest, RandomizedInterleavedUpdatesStayByteIdentical) {
  // Rounds of (pipeline traffic, append/remove) against a
  // synchronous reference engine receiving the identical update
  // sequence: after every round, pipeline answers must be byte-identical
  // to the reference — same corpus, same epoch, same (distance, id)
  // lists.
  const int bits = 64, k = 8;
  Rng rng(81);
  const PackedCodes corpus = RandomCorpus(300, bits, 82);
  const PackedCodes queries = RandomCorpus(24, bits, 83);

  auto reference = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                corpus.words()),
      {});
  BatcherOptions batcher_options;
  batcher_options.max_batch = 8;
  batcher_options.timeout_us = 200;
  Pipeline pipeline(corpus, batcher_options);

  int total_rows = corpus.size();
  for (int round = 0; round < 6; ++round) {
    // Mutate: append a small random batch and tombstone a few ids, the
    // same sequence on both sides.
    const PackedCodes extra =
        RandomCorpus(5 + static_cast<int>(rng.UniformInt(8)), bits,
                     900 + static_cast<uint64_t>(round));
    const std::vector<int> pipeline_ids = pipeline.replica_set->Append(extra);
    const std::vector<int> reference_ids = reference->Append(extra);
    ASSERT_EQ(pipeline_ids, reference_ids);
    total_rows += extra.size();
    std::vector<int> doomed;
    for (int i = 0; i < 3; ++i) {
      doomed.push_back(
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(total_rows))));
    }
    ASSERT_EQ(pipeline.replica_set->RemoveIds(doomed),
              reference->RemoveIds(doomed));
    ASSERT_EQ(pipeline.replica_set->epoch(), reference->epoch());

    // Query through the pipeline; verify against the reference.
    std::vector<std::future<SearchResponse>> futures;
    for (int q = 0; q < queries.size(); ++q) {
      futures.push_back(pipeline.batcher->Submit(queries, q, k));
    }
    for (int q = 0; q < queries.size(); ++q) {
      SearchResponse response = futures[static_cast<size_t>(q)].get();
      ASSERT_TRUE(response.status.ok());
      ExpectSameNeighbors(reference->SearchOne(queries.code(q), k),
                          response.neighbors);
    }
  }
}

TEST(PipelineIdentityTest, CompactionUnderPipelineTrafficIsInvisible) {
  // Rounds of (pipeline traffic, append/remove/compact) against
  // a synchronous reference engine that receives the same appends and
  // removes but NEVER compacts: pipeline answers must stay byte-identical
  // — compaction must be invisible to every query, including the global
  // ids it returns.
  const int bits = 64, k = 8;
  Rng rng(91);
  const PackedCodes corpus = RandomCorpus(250, bits, 92);
  const PackedCodes queries = RandomCorpus(20, bits, 93);

  auto reference = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                corpus.words()),
      {});
  BatcherOptions batcher_options;
  batcher_options.max_batch = 8;
  batcher_options.timeout_us = 200;
  Pipeline pipeline(corpus, batcher_options);

  int total_rows = corpus.size();
  for (int round = 0; round < 5; ++round) {
    const PackedCodes extra =
        RandomCorpus(4 + static_cast<int>(rng.UniformInt(6)), bits,
                     700 + static_cast<uint64_t>(round));
    ASSERT_EQ(pipeline.replica_set->Append(extra), reference->Append(extra));
    total_rows += extra.size();
    std::vector<int> doomed;
    for (int i = 0; i < 8; ++i) {
      doomed.push_back(
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(total_rows))));
    }
    const int newly_dead = pipeline.replica_set->RemoveIds(doomed);
    ASSERT_EQ(newly_dead, reference->RemoveIds(doomed));

    // Every previous round left the corpus fully compacted, so this
    // round reclaims exactly the rows that just died.
    const CompactionStats stats = pipeline.replica_set->engine()->Compact();
    EXPECT_EQ(stats.rows_reclaimed, newly_dead) << "round " << round;

    std::vector<std::future<SearchResponse>> futures;
    for (int q = 0; q < queries.size(); ++q) {
      futures.push_back(pipeline.batcher->Submit(queries, q, k));
    }
    for (int q = 0; q < queries.size(); ++q) {
      SearchResponse response = futures[static_cast<size_t>(q)].get();
      ASSERT_TRUE(response.status.ok());
      ExpectSameNeighbors(reference->SearchOne(queries.code(q), k),
                          response.neighbors);
    }
  }
  const ServeStatsSnapshot stats = pipeline.replica_set->engine()->stats();
  EXPECT_GT(stats.compactions, 0);
  EXPECT_GT(stats.compact_rows_reclaimed, 0);
}

TEST(CompactionConcurrencyTest, SearchesDuringCompactionStayExact) {
  // Hammer one engine with search threads while a writer loops
  // remove-then-compact: every search must return internally consistent
  // results (ascending (distance, id), live rows only, correct k), and
  // the final state must equal a never-compacted reference.
  const int bits = 64, k = 10;
  const PackedCodes corpus = RandomCorpus(600, bits, 95);
  const PackedCodes queries = RandomCorpus(16, bits, 96);
  ServingSnapshotOptions options;
  options.index.num_shards = 4;
  options.engine.cache_capacity = 0;  // every search hits the shards
  auto engine = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                corpus.words()),
      options);
  auto reference = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                corpus.words()),
      {});

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> searchers;
  for (int t = 0; t < 4; ++t) {
    searchers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (int q = 0; q < queries.size(); ++q) {
          const auto result = engine->SearchOne(queries.code(q), k);
          for (size_t i = 1; i < result.size(); ++i) {
            if (result[i].distance < result[i - 1].distance ||
                (result[i].distance == result[i - 1].distance &&
                 result[i].id <= result[i - 1].id)) {
              violations.fetch_add(1);
            }
          }
        }
      }
    });
  }

  Rng rng(97);
  for (int wave = 0; wave < 10; ++wave) {
    std::vector<int> doomed;
    for (int i = 0; i < 12; ++i) {
      doomed.push_back(static_cast<int>(rng.UniformInt(600)));
    }
    ASSERT_EQ(engine->RemoveIds(doomed), reference->RemoveIds(doomed));
    engine->Compact();  // reference never compacts
  }
  done.store(true, std::memory_order_release);
  for (std::thread& searcher : searchers) searcher.join();
  EXPECT_EQ(violations.load(), 0);

  ASSERT_EQ(engine->index().size(), reference->index().size());
  for (int q = 0; q < queries.size(); ++q) {
    ExpectSameNeighbors(reference->SearchOne(queries.code(q), k),
                        engine->SearchOne(queries.code(q), k));
  }
}

// ---------------------------------------------------------------------
// Stats plumbing

TEST(ServeStatsTest, BatchSizeBucketsAndLabels) {
  EXPECT_EQ(BatchSizeBucket(1), 0);
  EXPECT_EQ(BatchSizeBucket(2), 1);
  EXPECT_EQ(BatchSizeBucket(3), 2);
  EXPECT_EQ(BatchSizeBucket(4), 2);
  EXPECT_EQ(BatchSizeBucket(5), 3);
  EXPECT_EQ(BatchSizeBucket(1 << 12), kBatchSizeBuckets - 1);
  EXPECT_EQ(BatchSizeBucketLabel(0), "1");
  EXPECT_EQ(BatchSizeBucketLabel(2), "<=4");
}

TEST(ServeStatsTest, BatchSizeBucketBoundaries) {
  // Every power-of-two boundary: 2^b is the largest size in bucket b,
  // and 2^b + 1 spills into the next bucket (clamped at the last).
  for (int b = 1; b < kBatchSizeBuckets; ++b) {
    EXPECT_EQ(BatchSizeBucket(1 << b), std::min(b, kBatchSizeBuckets - 1))
        << "size=2^" << b;
    EXPECT_EQ(BatchSizeBucket((1 << b) + 1),
              std::min(b + 1, kBatchSizeBuckets - 1))
        << "size=2^" << b << "+1";
  }
  // Degenerate and overflow sizes clamp instead of indexing out of range.
  EXPECT_EQ(BatchSizeBucket(0), 0);
  EXPECT_EQ(BatchSizeBucket(-5), 0);
  EXPECT_EQ(BatchSizeBucket(std::numeric_limits<int>::max() / 2),
            kBatchSizeBuckets - 1);
  // Labels at the edges: bucket 1 is exactly "2", the final bucket is
  // open-ended, and out-of-range bucket indices reuse the edge labels.
  EXPECT_EQ(BatchSizeBucketLabel(1), "2");
  EXPECT_EQ(BatchSizeBucketLabel(kBatchSizeBuckets - 1),
            ">" + std::to_string(1 << (kBatchSizeBuckets - 2)));
  EXPECT_EQ(BatchSizeBucketLabel(-1), "1");
  EXPECT_EQ(BatchSizeBucketLabel(kBatchSizeBuckets + 5),
            BatchSizeBucketLabel(kBatchSizeBuckets - 1));
}

TEST(ServeStatsTest, PipelineStatsFillSnapshot) {
  PipelineStats stats;
  stats.RecordFlush(8, /*by_timeout=*/false);
  stats.RecordFlush(3, /*by_timeout=*/true);
  for (int i = 0; i < 11; ++i) {
    stats.RecordRequestDone(/*queue_seconds=*/0.001 * (i + 1),
                            /*total_seconds=*/0.002 * (i + 1));
  }
  stats.RecordRejected(2);
  ServeStatsSnapshot snap;
  stats.FillSnapshot(&snap);
  EXPECT_EQ(snap.queries, 11);
  EXPECT_EQ(snap.batches, 2);
  EXPECT_EQ(snap.batches_flushed_by_size, 1);
  EXPECT_EQ(snap.batches_flushed_by_timeout, 1);
  EXPECT_EQ(snap.rejected_requests, 2);
  EXPECT_GT(snap.time_in_queue_p50_ms, 0.0);
  EXPECT_GE(snap.time_in_queue_p99_ms, snap.time_in_queue_p50_ms);
  EXPECT_GE(snap.latency_p99_ms, snap.latency_p50_ms);
}

}  // namespace
}  // namespace uhscm::serve
