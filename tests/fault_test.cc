// Serving failure semantics: the fault-injection layer itself,
// deadlines, admission shedding, and drain. The load-bearing
// invariants:
//   * every future handed out resolves exactly once — OK, Unavailable,
//     or DeadlineExceeded, never silently dropped — under any injected
//     fault schedule;
//   * every OK response is byte-identical to QueryEngine::Search on the
//     same corpus;
//   * injected faults are deterministic for a fixed seed and
//     evaluation order, so every failure scenario here reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "index/packed_codes.h"
#include "serve/batcher.h"
#include "serve/fault.h"
#include "serve/replica_set.h"
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

/// Every test arms global state; this guard resets the injector on both
/// ends so no schedule leaks across tests (gtest runs them in one
/// process).
struct InjectorGuard {
  InjectorGuard() { FaultInjector::Global().Reset(); }
  ~InjectorGuard() { FaultInjector::Global().Reset(); }
};

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

// ---------------------------------------------------------------------
// FaultInjector semantics

TEST(FaultInjectorTest, SkipHitsThenMaxFiresBoundsTheWindow) {
  if (!kFaultsCompiledIn) GTEST_SKIP() << "faults compiled out";
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  FaultSpec spec;
  spec.skip_hits = 2;  // eligible from the 3rd evaluation
  spec.max_fires = 2;  // ... and fires exactly twice
  injector.Arm("test.point", spec);

  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(injector.ShouldFail("test.point"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(injector.hits("test.point"), 6);
  EXPECT_EQ(injector.fires("test.point"), 2);
}

TEST(FaultInjectorTest, ProbabilityDrawsAreSeedDeterministic) {
  if (!kFaultsCompiledIn) GTEST_SKIP() << "faults compiled out";
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  FaultSpec coin;
  coin.probability = 0.5;

  auto run_schedule = [&] {
    injector.Reset();
    injector.Seed(12345);
    injector.Arm("test.coin", coin);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(injector.ShouldFail("test.coin"));
    return fired;
  };
  const std::vector<bool> first = run_schedule();
  const std::vector<bool> second = run_schedule();
  EXPECT_EQ(first, second) << "same seed + same order => same schedule";
  const auto fires = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64) << "p=0.5 should neither always nor never fire";
}

// ---------------------------------------------------------------------
// Pipeline failure semantics: deadlines and admission faults

TEST(PipelineFaultTest, ExpiredDeadlineResolvesWithoutTouchingAReplica) {
  const PackedCodes corpus = RandomCorpus(100, 64, 161);
  BatcherOptions batcher_options;
  batcher_options.max_batch = 4;
  batcher_options.timeout_us = 200;
  Pipeline pipeline(corpus, batcher_options);

  // Already-expired deadlines: the flush must expire them all.
  const auto past = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 6; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5, past));
  }
  for (std::future<SearchResponse>& future : futures) {
    const SearchResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.neighbors.empty());
  }
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_EQ(stats.deadline_exceeded, 6);
  EXPECT_EQ(stats.queries, 0) << "expired requests never reach an engine";

  // A comfortable deadline serves normally.
  const auto future_deadline = std::chrono::steady_clock::now() +
                               std::chrono::seconds(30);
  std::future<SearchResponse> ok =
      pipeline.batcher->Submit(corpus, 0, 5, future_deadline);
  EXPECT_TRUE(ok.get().status.ok());
}

TEST(PipelineFaultTest, AdmissionFaultShedsExactlyTheArmedWindow) {
  if (!kFaultsCompiledIn) GTEST_SKIP() << "faults compiled out";
  InjectorGuard guard;
  const PackedCodes corpus = RandomCorpus(100, 64, 171);
  BatcherOptions batcher_options;
  batcher_options.max_batch = 4;
  batcher_options.timeout_us = 200;
  Pipeline pipeline(corpus, batcher_options);

  FaultSpec shed;
  shed.max_fires = 3;
  FaultInjector::Global().Arm(kFaultQueueAdmit, shed);

  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 10; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5));
  }
  int rejected = 0, served = 0;
  for (std::future<SearchResponse>& future : futures) {
    const SearchResponse response = future.get();
    if (response.status.ok()) {
      ++served;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 3) << "exactly the armed window is shed";
  EXPECT_EQ(served, 7);
  EXPECT_GE(pipeline.batcher->stats().rejected_requests, 3);
}

// ---------------------------------------------------------------------
// Randomized fault-schedule stress

TEST(PipelineFaultTest, RandomizedFaultScheduleEveryFutureResolves) {
  if (!kFaultsCompiledIn) GTEST_SKIP() << "faults compiled out";
  const int bits = 64;
  const PackedCodes corpus = RandomCorpus(250, bits, 201);
  const PackedCodes probes = RandomCorpus(20, bits, 202);
  auto truth = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(), corpus.words()),
      {});

  struct Submitted {
    std::future<SearchResponse> future;
    int q = 0;
    int k = 0;
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    InjectorGuard guard;
    Rng rng(2023 + seed);
    FaultInjector::Global().Seed(7 + seed);

    BatcherOptions batcher_options;
    batcher_options.max_batch = 8;
    batcher_options.timeout_us = 200;
    Pipeline pipeline(corpus, batcher_options);

    // The drain lands mid-stream: a batch is being searched and requests
    // are queued when it closes the pipeline, and later rounds keep
    // submitting into the closed queue.
    const int drain_round = 10 + static_cast<int>(rng.UniformInt(10));
    std::vector<Submitted> submitted;
    for (int round = 0; round < 30; ++round) {
      // Random admission shedding, seeded.
      if (rng.Uniform() < 0.3) {
        FaultSpec shed;
        shed.max_fires = static_cast<int64_t>(rng.UniformInt(3)) + 1;
        shed.probability = 0.5;
        FaultInjector::Global().Arm(kFaultQueueAdmit, shed);
      }
      for (int i = 0; i < 12; ++i) {
        Submitted s;
        s.q = static_cast<int>(
            rng.UniformInt(static_cast<uint64_t>(probes.size())));
        s.k = 1 + static_cast<int>(rng.UniformInt(10));
        // Per-request deadlines: already expired, tight enough to expire
        // or not depending on the flush, or none.
        const auto now = std::chrono::steady_clock::now();
        auto deadline = std::chrono::steady_clock::time_point::max();
        const double dice = rng.Uniform();
        if (dice < 0.15) {
          deadline = now - std::chrono::milliseconds(1);
        } else if (dice < 0.35) {
          deadline = now + std::chrono::microseconds(rng.UniformInt(500));
        }
        s.future = pipeline.batcher->Submit(probes, s.q, s.k, deadline);
        submitted.push_back(std::move(s));
      }
      if (round == drain_round) pipeline.batcher->Drain();
    }

    // Every future resolves with a legal status — nothing hangs, nothing
    // is dropped — and every OK answer is the reference engine's.
    int ok = 0, expired = 0, unavailable = 0;
    for (Submitted& s : submitted) {
      ASSERT_EQ(s.future.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "a future never resolved";
      const SearchResponse response = s.future.get();
      switch (response.status.code()) {
        case StatusCode::kOk:
          ++ok;
          ExpectSameNeighbors(truth->SearchOne(probes.code(s.q), s.k),
                              response.neighbors);
          break;
        case StatusCode::kDeadlineExceeded:
          ++expired;
          EXPECT_TRUE(response.neighbors.empty());
          break;
        case StatusCode::kUnavailable:
          ++unavailable;
          EXPECT_TRUE(response.neighbors.empty());
          break;
        default:
          ADD_FAILURE() << response.status.ToString();
      }
    }
    EXPECT_GT(ok, 0) << "the schedule must serve some traffic";
    EXPECT_GT(expired, 0) << "the schedule must expire some requests";
    EXPECT_GT(unavailable, 0) << "submissions after the drain are rejected";

    // Exactly once: each outcome is counted once in the pipeline's own
    // accounting, so a request resolved twice (or never) would show up
    // as a mismatch here.
    const ServeStatsSnapshot stats = pipeline.batcher->stats();
    EXPECT_EQ(stats.queries, ok);
    EXPECT_EQ(stats.deadline_exceeded, expired);
    EXPECT_EQ(stats.rejected_requests, unavailable);
    EXPECT_EQ(pipeline.batcher->queue_depth(), 0u);
  }
}

}  // namespace
}  // namespace uhscm::serve
