// async_serve — (B, T) sweep of the async request pipeline at
// saturation against the caller-batched synchronous baseline.
//
// The serving story this bench pins down: production callers arrive with
// *their* batch shape — a handful of queries per request — and the
// synchronous path scans the corpus at that shape. The pipeline admits
// the same per-request queries into a bounded queue, re-batches them
// adaptively (flush at B queries or T microseconds, whichever first),
// and searches each flush on the one engine, so the SIMD batch scan runs
// at the shape the *load* supports, not the shape any one caller
// happened to send.
//
// Baseline: one engine (all hardware threads) driven by one closed-loop
// caller issuing synchronous Search calls of `--request-size` queries —
// exactly the pre-pipeline `uhscm_cli serve` replay loop, where batch
// shape was whatever the caller happened to send and the engine idled
// between calls. Context rows show the same caller batching generously
// (32) and `--clients` concurrent caller threads.
//
// Acceptance gate (armed at the default size on >= 4-core hosts): the
// best pipeline configuration must reach >= 1.5x the single-caller
// caller-batched baseline QPS at saturation, with end-to-end p99
// staying bounded; and the observability layer, enabled but unsampled,
// must keep >= 99% of the disabled layer's QPS in the median of
// kObsPairs interleaved pairs. Emits BENCH_async_serve.json.
//
//   $ ./build/async_serve [--n=100000] [--bits=128] [--k=10]
//                         [--requests=2048] [--request-size=1]
//                         [--clients=4] [--seed=2023]
//                         [--json=BENCH_async_serve.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "index/packed_codes.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf_util.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"

namespace uhscm::bench {
namespace {

/// The observability-overhead gate's sample: kObsPairs disabled/enabled
/// pairs of kObsPasses replays each. One pair's ratio swings by a few
/// percent on a shared host, so the gate judges the median ratio, never
/// a single or best-of reading.
constexpr int kObsPairs = 21;
constexpr int kObsPasses = 2;
static_assert(kObsPasses % 2 == 0, "each request must be timed in both arms");

struct Flags {
  int n = 100000;
  int bits = 128;
  int k = 10;
  int requests = 2048;
  int request_size = 1;
  int clients = 4;
  uint64_t seed = 2023;
  std::string json = "BENCH_async_serve.json";
};

Flags ParseAsyncFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--n=")) {
      flags.n = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--bits=")) {
      flags.bits = std::atoi(arg.c_str() + 7);
    } else if (StartsWith(arg, "--k=")) {
      flags.k = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--requests=")) {
      flags.requests = std::atoi(arg.c_str() + 11);
    } else if (StartsWith(arg, "--request-size=")) {
      flags.request_size = std::max(1, std::atoi(arg.c_str() + 15));
    } else if (StartsWith(arg, "--clients=")) {
      flags.clients = std::max(1, std::atoi(arg.c_str() + 10));
    } else if (StartsWith(arg, "--seed=")) {
      flags.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (StartsWith(arg, "--json=")) {
      flags.json = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: async_serve [--n=N] [--bits=K] [--k=K] "
                   "[--requests=N] [--request-size=Q] [--clients=C] "
                   "[--seed=N] [--json=PATH]\n");
      std::exit(2);
    }
  }
  return flags;
}

struct RunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double tiq_p99_ms = 0.0;
  int64_t by_size = 0;
  int64_t by_timeout = 0;
};

/// The synchronous baseline engine: 4 shards, cache off (measure
/// search, not the LRU), every hardware thread.
std::unique_ptr<serve::QueryEngine> MakeBaselineEngine(
    const index::PackedCodes& corpus) {
  serve::ServingSnapshotOptions options;
  options.index.num_shards = 4;
  options.engine.cache_capacity = 0;
  return serve::MakeQueryEngine(
      index::PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                       corpus.words()),
      options);
}

/// Caller-batched baseline: `clients` closed-loop threads, each issuing
/// synchronous Search calls of request_size queries against one shared
/// engine — the pre-pipeline serving model.
RunResult RunCallerBatched(const index::PackedCodes& corpus,
                           const index::PackedCodes& queries, int k,
                           int request_size, int clients) {
  auto engine = MakeBaselineEngine(corpus);
  const std::vector<index::PackedCodes> request_batches =
      serve::SliceBatches(queries, request_size);

  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(clients));
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t b = static_cast<size_t>(c); b < request_batches.size();
           b += static_cast<size_t>(clients)) {
        Stopwatch watch;
        engine->Search(request_batches[b], k);
        latencies[static_cast<size_t>(c)].push_back(watch.ElapsedMillis());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const std::vector<double>& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  RunResult result;
  result.qps = seconds > 0.0 ? queries.size() / seconds : 0.0;
  result.p99_ms = serve::Percentile(all, 99.0);
  result.p50_ms = serve::Percentile(std::move(all), 50.0);
  return result;
}

/// Pipeline run at saturation: the same clients submit their requests'
/// queries one by one into the batcher (open loop, bounded by the
/// admission queue's backpressure) and then wait for every future.
RunResult RunPipeline(const index::PackedCodes& corpus,
                      const index::PackedCodes& queries, int k, int max_batch,
                      int64_t timeout_us, int clients) {
  serve::ReplicaSetOptions options;
  options.serving.index.num_shards = 4;
  options.serving.engine.cache_capacity = 0;
  serve::ReplicaSet replica_set(io::CodesSnapshot{corpus}, options);
  serve::Router router(&replica_set);
  serve::BatcherOptions batcher_options;
  batcher_options.max_batch = max_batch;
  batcher_options.timeout_us = timeout_us;
  serve::Batcher batcher(&router, batcher_options);

  std::atomic<int> failures{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<serve::SearchResponse>> futures;
      for (int q = c; q < queries.size(); q += clients) {
        futures.push_back(batcher.Submit(queries, q, k));
      }
      for (std::future<serve::SearchResponse>& future : futures) {
        if (!future.get().status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = wall.ElapsedSeconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "FATAL: %d pipeline requests failed\n",
                 failures.load());
    std::exit(1);
  }

  const serve::ServeStatsSnapshot stats = batcher.stats();
  RunResult result;
  result.qps = seconds > 0.0 ? queries.size() / seconds : 0.0;
  result.p50_ms = stats.latency_p50_ms;
  result.p99_ms = stats.latency_p99_ms;
  result.tiq_p99_ms = stats.time_in_queue_p99_ms;
  result.by_size = stats.batches_flushed_by_size;
  result.by_timeout = stats.batches_flushed_by_timeout;
  batcher.Drain();
  return result;
}

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags = ParseAsyncFlags(argc, argv);
  Rng rng(flags.seed);
  const index::PackedCodes corpus = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(flags.n, flags.bits, &rng));
  const int total_queries = flags.requests * flags.request_size;
  const index::PackedCodes queries = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(total_queries, flags.bits, &rng));
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::printf(
      "corpus n=%d bits=%d | %d requests x %d queries (%d total), k=%d, "
      "%d clients, %d hardware threads\n\n",
      flags.n, flags.bits, flags.requests, flags.request_size, total_queries,
      flags.k, flags.clients, hw);

  TableWriter table({"config", "B", "T_us", "qps", "p50_ms", "p99_ms",
                     "tiq_p99_ms", "by_size", "by_timeout", "speedup"});
  struct JsonRow {
    std::string config;
    int max_batch;
    int64_t timeout_us;
    RunResult result;
    double speedup;
  };
  std::vector<JsonRow> json_rows;
  auto record = [&](const std::string& config, int max_batch,
                    int64_t timeout_us, const RunResult& result,
                    double speedup) {
    table.AddRow({config, std::to_string(max_batch),
                  std::to_string(timeout_us),
                  Fmt(result.qps), Fmt(result.p50_ms, "%.3f"),
                  Fmt(result.p99_ms, "%.3f"), Fmt(result.tiq_p99_ms, "%.3f"),
                  std::to_string(result.by_size),
                  std::to_string(result.by_timeout), Fmt(speedup, "%.2f")});
    json_rows.push_back({config, max_batch, timeout_us, result, speedup});
  };

  // The gate's reference: the pre-pipeline serving model — one
  // synchronous caller, batching at its own request shape.
  const RunResult baseline = RunCallerBatched(corpus, queries, flags.k,
                                              flags.request_size,
                                              /*clients=*/1);
  record("caller-batched", flags.request_size, 0, baseline, 1.0);
  // Context rows: a caller who happens to batch generously, and several
  // concurrent callers sharing the one engine.
  const RunResult generous =
      RunCallerBatched(corpus, queries, flags.k, 32, /*clients=*/1);
  record("caller-batched", 32, 0, generous, generous.qps / baseline.qps);
  const RunResult multi_caller = RunCallerBatched(
      corpus, queries, flags.k, flags.request_size, flags.clients);
  record("caller-batched-mt", flags.request_size, 0, multi_caller,
         multi_caller.qps / baseline.qps);

  // Pipeline sweep over batch shapes.
  RunResult best;
  int best_max_batch = 0;
  for (const auto& [max_batch, timeout_us] :
       std::vector<std::pair<int, int64_t>>{
           {16, 200}, {64, 500}, {256, 2000}}) {
    const RunResult result = RunPipeline(corpus, queries, flags.k, max_batch,
                                         timeout_us, flags.clients);
    record("pipeline", max_batch, timeout_us, result,
           result.qps / baseline.qps);
    if (result.qps > best.qps) {
      best = result;
      best_max_batch = max_batch;
    }
  }
  table.Print(std::cout);

  // Observability overhead A/B: the single-caller caller-batched replay
  // with the layer runtime-disabled vs enabled-but-unsampled (sampling
  // off is the production default). Both arms search one engine, and
  // within a pair the runtime switch flips on every request, the first
  // arm alternating between passes and pairs — so host drift lands on
  // both arms alike and every request is timed once per arm per pair.
  obs::TraceRecorder::Global().SetSampleEvery(0);
  const auto obs_engine = MakeBaselineEngine(corpus);
  const std::vector<index::PackedCodes> obs_batches =
      serve::SliceBatches(queries, flags.request_size);
  std::vector<double> disabled_qps, enabled_qps;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    double seconds[2] = {0.0, 0.0};  // [disabled, enabled]
    for (int pass = 0; pass < kObsPasses; ++pass) {
      for (size_t b = 0; b < obs_batches.size(); ++b) {
        const size_t arm = (b + static_cast<size_t>(pass + pair)) % 2;
        obs::SetRuntimeEnabled(arm == 1);
        Stopwatch watch;
        obs_engine->Search(obs_batches[b], flags.k);
        seconds[arm] += watch.ElapsedSeconds();
      }
    }
    const double per_arm = kObsPasses * queries.size() / 2.0;
    disabled_qps.push_back(per_arm / seconds[0]);
    enabled_qps.push_back(per_arm / seconds[1]);
  }
  const PairedRatios obs_pairs =
      SummarizePairs(std::move(disabled_qps), std::move(enabled_qps));
  obs::SetRuntimeEnabled(true);
  const double obs_disabled_qps = serve::Percentile(obs_pairs.a, 50.0);
  const double obs_enabled_qps = serve::Percentile(obs_pairs.b, 50.0);
  std::printf("\nobservability overhead (enabled-unsampled / disabled), "
              "%d pairs: median ratio %.4f (IQR %.4f; median QPS %.1f vs "
              "%.1f)\n  ratios: %s\n",
              kObsPairs, obs_pairs.median, obs_pairs.iqr, obs_enabled_qps,
              obs_disabled_qps, JoinFmt(obs_pairs.ratios, "%.4f", " ").c_str());

  // Untimed instrumented pass: one pipeline run with every request
  // sampled fills the stage.*_ns histograms for the JSON breakdown.
  {
    obs::TraceRecorder::Global().SetSampleEvery(1);
    RunPipeline(corpus, queries, flags.k, /*max_batch=*/64,
                /*timeout_us=*/500, flags.clients);
    obs::TraceRecorder::Global().SetSampleEvery(0);
  }

  if (!flags.json.empty()) {
    std::FILE* f = std::fopen(flags.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr,
                   "WARNING: cannot write %s — perf trajectory not "
                   "recorded\n",
                   flags.json.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"async_serve\",\n");
      WriteJsonRunMeta(f);
      WriteJsonStageBreakdown(f);
      std::fprintf(f,
                   "  \"obs_overhead\": {\"pairs\": %d, "
                   "\"disabled_qps\": %.1f, \"enabled_qps\": %.1f, "
                   "\"ratio\": %.4f, \"ratio_iqr\": %.4f, "
                   "\"ratios\": [%s]},\n",
                   kObsPairs, obs_disabled_qps, obs_enabled_qps,
                   obs_pairs.median, obs_pairs.iqr,
                   JoinFmt(obs_pairs.ratios, "%.4f", ", ").c_str());
      std::fprintf(f,
                   "  \"n\": %d, \"bits\": %d, \"k\": %d, \"requests\": %d, "
                   "\"request_size\": %d, \"clients\": %d, \"hw\": %d,\n",
                   flags.n, flags.bits, flags.k, flags.requests,
                   flags.request_size, flags.clients, hw);
      std::fprintf(f, "  \"rows\": [\n");
      for (size_t i = 0; i < json_rows.size(); ++i) {
        const JsonRow& r = json_rows[i];
        std::fprintf(
            f,
            "    {\"config\": \"%s\", \"B\": %d, "
            "\"T_us\": %lld, \"qps\": %.1f, \"p50_ms\": %.4f, "
            "\"p99_ms\": %.4f, \"tiq_p99_ms\": %.4f, \"by_size\": %lld, "
            "\"by_timeout\": %lld, \"speedup\": %.3f}%s\n",
            r.config.c_str(), r.max_batch,
            static_cast<long long>(r.timeout_us), r.result.qps,
            r.result.p50_ms, r.result.p99_ms, r.result.tiq_p99_ms,
            static_cast<long long>(r.result.by_size),
            static_cast<long long>(r.result.by_timeout), r.speedup,
            i + 1 < json_rows.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("\nwrote %s\n", flags.json.c_str());
    }
  }

  const double speedup = best.qps / baseline.qps;
  std::printf("\nbest pipeline: %.1f QPS at B=%d (%.2fx the caller-batched "
              "baseline's %.1f), p99 %.3f ms vs baseline %.3f ms\n",
              best.qps, best_max_batch, speedup, baseline.qps, best.p99_ms,
              baseline.p99_ms);

  // The 1.5x bar only means something at a size where the batcher can
  // actually form large batches and the host has cores for the engine's
  // pool to fan a batch across; tiny smoke runs (CI sanitizer job,
  // laptops) skip it.
  const bool gate_armed =
      flags.n >= 50000 && total_queries >= 2048 && hw >= 4;
  if (!gate_armed) {
    std::printf("[acceptance gate not armed at this size]\n");
    return 0;
  }
  // Observability gate: enabled-but-unsampled must cost <= 1% QPS on the
  // hot sync path, judged on the median per-pair ratio. Armed with the
  // main gate — the same "too small to measure" caveat applies, and
  // below ~50k rows per-run noise exceeds the 1% band being tested.
  if (obs_pairs.median < 0.99) {
    std::printf("FAIL: observability layer costs %.1f%% QPS (median of %d "
                "pairs) when enabled but unsampled (budget: 1%%)\n",
                (1.0 - obs_pairs.median) * 100.0, kObsPairs);
    return 1;
  }
  if (speedup < 1.5) {
    std::printf("FAIL: best pipeline configuration below the 1.5x QPS "
                "acceptance bar\n");
    return 1;
  }
  // "Bounded p99" means bounded by the backpressure design: at
  // saturation a request waits at most behind the full admission queue
  // (8·B entries) plus the one batch the flush thread is searching, so
  // allow 3x that drain time (or a 250 ms floor for timer noise).
  // Unbounded queues would blow well past this; a healthy bounded
  // pipeline sits comfortably inside it.
  const double queue_entries = 8.0 * best_max_batch + best_max_batch;
  const double p99_bound = std::max(250.0, 3000.0 * queue_entries / best.qps);
  if (best.p99_ms > p99_bound) {
    std::printf("FAIL: pipeline p99 %.3f ms exceeds the bounded-latency "
                "bar (%.3f ms)\n",
                best.p99_ms, p99_bound);
    return 1;
  }
  std::printf("PASS: >= 1.5x QPS at saturation with bounded p99\n");
  return 0;
}

}  // namespace uhscm::bench

int main(int argc, char** argv) { return uhscm::bench::Main(argc, argv); }
