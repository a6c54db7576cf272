// update_throughput — mutable-index bench: updates interleaved with
// query traffic.
//
// Builds a synthetic packed-code corpus behind a serve::QueryEngine,
// then runs a writer thread (batched appends + single-id tombstone
// deletes) concurrently with reader threads replaying query batches.
// Reports appends/sec, removes/sec, and the query QPS observed *while*
// the corpus was mutating, then verifies exactness: engine results after
// the run must be byte-identical (after id compaction) to a freshly
// built engine over the surviving rows.
//
// A second phase measures what tombstone compaction buys: the corpus is
// churned (append + delete) until half the rows are dead, and a second,
// compacted engine is hydrated from the churned corpus. Steady-state
// scan throughput is measured on the two engines alternately for
// kCompactionPairs pairs (the first engine of a pair alternates, so
// host drift hits both sides alike); the per-pair ratios, their median
// and their interquartile spread are reported. The churned engine is
// then compacted in place. Results of the 50%-dead engine, the hydrated
// compacted engine, and the in-place compacted engine must be
// byte-identical (same distances, same global ids).
//
// Acceptance gates: at the default corpus size the writer must sustain
// >= 10k appends/sec while queries run, and the median compacted-scan
// ratio must reach >= 1.5x the 50%-dead uncompacted scan throughput — or
// the bench exits non-zero.
//
//   $ ./build/update_throughput [--n=50000] [--bits=64] [--k=10]
//                               [--queries=256] [--append-batch=64]
//                               [--target-appends=200000] [--seed=2023]
//                               [--churn-passes=6]
//                               [--json=BENCH_update_throughput.json]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "index/linear_scan.h"
#include "index/packed_codes.h"
#include "io/serialize.h"
#include "obs/trace.h"
#include "perf_util.h"
#include "serve/query_engine.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"

namespace uhscm::bench {
namespace {

struct Flags {
  int n = 50000;
  int bits = 64;
  int k = 10;
  int queries = 256;
  int append_batch = 64;
  int target_appends = 200000;
  uint64_t seed = 2023;
  /// Full replays of the query stream per churn-phase measurement; more
  /// passes smooth the timing at the cost of wall clock.
  int churn_passes = 6;
  std::string json = "BENCH_update_throughput.json";
};

/// Alternating (50%-dead, compacted) throughput pairs. The gate judges
/// the median of the per-pair ratios: on a shared 4-vCPU VM single
/// pairs ranged 1.07x-2.05x while 9-pair medians stayed within
/// 1.51x-1.84x.
constexpr int kCompactionPairs = 9;

Flags ParseUpdateFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--n=")) {
      flags.n = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--bits=")) {
      flags.bits = std::atoi(arg.c_str() + 7);
    } else if (StartsWith(arg, "--k=")) {
      flags.k = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--queries=")) {
      flags.queries = std::atoi(arg.c_str() + 10);
    } else if (StartsWith(arg, "--append-batch=")) {
      flags.append_batch = std::max(1, std::atoi(arg.c_str() + 15));
    } else if (StartsWith(arg, "--target-appends=")) {
      flags.target_appends = std::atoi(arg.c_str() + 17);
    } else if (StartsWith(arg, "--seed=")) {
      flags.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (StartsWith(arg, "--churn-passes=")) {
      flags.churn_passes = std::max(1, std::atoi(arg.c_str() + 15));
    } else if (StartsWith(arg, "--json=")) {
      flags.json = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: update_throughput [--n=N] [--bits=K] [--k=K] "
                   "[--queries=N] [--append-batch=B] [--target-appends=N] "
                   "[--seed=N] [--churn-passes=N] [--json=PATH]\n");
      std::exit(2);
    }
  }
  return flags;
}

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags = ParseUpdateFlags(argc, argv);
  Rng rng(flags.seed);
  const index::PackedCodes corpus = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(flags.n, flags.bits, &rng));
  const index::PackedCodes queries = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(flags.queries, flags.bits, &rng));
  std::printf(
      "corpus n=%d bits=%d | %d queries, k=%d | append batches of %d, "
      "target %d appends\n\n",
      flags.n, flags.bits, flags.queries, flags.k, flags.append_batch,
      flags.target_appends);

  serve::ServingSnapshotOptions options;
  options.index.num_shards = 4;
  auto engine = serve::MakeQueryEngine(
      index::PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                       corpus.words()),
      options);

  // Pre-generate the append stream so the writer thread measures index
  // mutation, not random-code generation.
  const int num_batches =
      (flags.target_appends + flags.append_batch - 1) / flags.append_batch;
  std::vector<index::PackedCodes> append_batches;
  append_batches.reserve(static_cast<size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    append_batches.push_back(index::PackedCodes::FromSignMatrix(
        RandomSignCodes(flags.append_batch, flags.bits, &rng)));
  }
  // Delete one existing id per append batch (1/append_batch delete:append
  // mix), drawn deterministically from the base corpus.
  std::vector<int> delete_ids;
  delete_ids.reserve(static_cast<size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    delete_ids.push_back(static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(flags.n))));
  }

  // Writer: appends + deletes as fast as the index accepts them.
  // Readers: replay query batches until the writer finishes. The writer
  // waits until every reader has completed one full replay before its
  // clock starts, so "appends/sec concurrent with query traffic" is
  // measured with queries genuinely in flight — without the barrier a
  // fast writer can finish before any reader issues a batch.
  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<int> readers_warm{0};
  std::atomic<int64_t> appended{0};
  std::atomic<int64_t> removed{0};
  double write_seconds = 0.0;
  std::thread writer([&] {
    while (readers_warm.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
    engine->ResetStats();  // scope QPS/latency to the contended window
    Stopwatch watch;
    for (int b = 0; b < num_batches; ++b) {
      appended.fetch_add(
          static_cast<int64_t>(engine->Append(append_batches[b]).size()),
          std::memory_order_relaxed);
      removed.fetch_add(engine->Remove(delete_ids[b]) ? 1 : 0,
                        std::memory_order_relaxed);
    }
    write_seconds = watch.ElapsedSeconds();
    done.store(true, std::memory_order_release);
  });

  // Slice the query stream into packed batches once; the reader loops
  // replay the same buffers every pass instead of re-copying the words.
  const std::vector<index::PackedCodes> query_batches =
      serve::SliceBatches(queries, 32);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      serve::ReplayBatches(engine.get(), query_batches, flags.k);
      readers_warm.fetch_add(1, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        serve::ReplayBatches(engine.get(), query_batches, flags.k);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();

  const serve::ServeStatsSnapshot stats = engine->stats();
  const double appends_per_sec =
      write_seconds > 0.0
          ? static_cast<double>(appended.load()) / write_seconds
          : 0.0;
  const double removes_per_sec =
      write_seconds > 0.0 ? static_cast<double>(removed.load()) / write_seconds
                          : 0.0;

  TableWriter table({"metric", "value"});
  table.AddRow({"appends_total", std::to_string(appended.load())});
  table.AddRow({"removes_total", std::to_string(removed.load())});
  table.AddRow({"appends_per_sec", Fmt(appends_per_sec)});
  table.AddRow({"removes_per_sec", Fmt(removes_per_sec)});
  table.AddRow({"concurrent_query_qps", Fmt(stats.qps())});
  table.AddRow({"query_p99_ms", Fmt(stats.latency_p99_ms, "%.3f")});
  table.AddRow({"final_epoch", std::to_string(stats.epoch)});
  table.AddRow({"live_codes", std::to_string(engine->index().size())});
  table.AddRow({"total_codes", std::to_string(engine->index().total_size())});
  table.Print(std::cout);

  // Exactness: the mutated engine must agree with a fresh engine built
  // over the surviving rows only. Survivors keep their relative order,
  // so mutable global ids map to rebuild ids by survivor rank.
  std::printf("\nverifying against fresh rebuild of survivors...\n");
  serve::CorpusExport snapshot = engine->index().Export();
  const index::TombstoneSet dead_rows = index::TombstoneSet::FromWords(
      snapshot.codes.size(), snapshot.tombstone_words);
  const int words_per_code = snapshot.codes.words_per_code();
  std::vector<uint64_t> live_words;
  live_words.reserve(static_cast<size_t>(snapshot.live) * words_per_code);
  std::vector<int> rank_of_gid(static_cast<size_t>(snapshot.codes.size()),
                               -1);
  int live = 0;
  for (int gid = 0; gid < snapshot.codes.size(); ++gid) {
    if (dead_rows.Test(gid)) continue;
    const uint64_t* src = snapshot.codes.code(gid);
    live_words.insert(live_words.end(), src, src + words_per_code);
    rank_of_gid[static_cast<size_t>(gid)] = live++;
  }
  index::LinearScanIndex truth(index::PackedCodes::FromRawWords(
      live, flags.bits, std::move(live_words)));
  int mismatches = 0;
  for (int q = 0; q < queries.size() && mismatches == 0; ++q) {
    const auto expect = truth.TopK(queries.code(q), flags.k);
    const auto got = engine->SearchOne(queries.code(q), flags.k);
    if (expect.size() != got.size()) {
      ++mismatches;
      break;
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (rank_of_gid[static_cast<size_t>(got[i].id)] != expect[i].id ||
          got[i].distance != expect[i].distance) {
        ++mismatches;
        break;
      }
    }
  }
  std::printf("exactness: %s\n", mismatches == 0 ? "OK" : "MISMATCH");

  // -------------------------------------------------------------------
  // Phase 2: append+delete churn to 50% dead, then compaction. Dead rows
  // still burn scan bandwidth (the blocked kernels compute their
  // distances before the tombstone filter drops them), so the compacted
  // steady-state scan should approach 2x the 50%-dead scan; the gate
  // asks for a median of >= 1.5x. The result cache is disabled so the
  // measurement is scan throughput, not hit rate.
  std::printf("\nchurn phase: appending %d rows, tombstoning half the "
              "corpus...\n", flags.n);
  serve::ServingSnapshotOptions churn_options;
  churn_options.index.num_shards = 4;
  churn_options.engine.cache_capacity = 0;
  auto churn_engine = serve::MakeQueryEngine(
      index::PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                       corpus.words()),
      churn_options);
  {
    // Churn in writer-sized batches so the append path (not one giant
    // copy) produces the grown corpus.
    int appended_rows = 0;
    while (appended_rows < flags.n) {
      const int count = std::min(flags.append_batch, flags.n - appended_rows);
      churn_engine->Append(index::PackedCodes::FromSignMatrix(
          RandomSignCodes(count, flags.bits, &rng)));
      appended_rows += count;
    }
  }
  const int churn_total = churn_engine->index().total_size();
  std::vector<int> churn_dead;
  churn_dead.reserve(static_cast<size_t>(churn_total) / 2);
  for (int gid = 0; gid < churn_total; gid += 2) churn_dead.push_back(gid);
  churn_engine->RemoveIds(churn_dead);
  const double dead_fraction =
      static_cast<double>(churn_total - churn_engine->index().size()) /
      churn_total;

  // The compacted side of the A/B: a second engine hydrated from the
  // churned corpus (hydration compacts the dead rows away), so the
  // 50%-dead engine stays dead for every pair.
  std::unique_ptr<serve::QueryEngine> compacted_engine;
  {
    uint64_t epoch = 0;
    serve::CorpusExport exported = churn_engine->ExportCorpus(&epoch);
    io::CodesSnapshot snapshot;
    snapshot.codes = std::move(exported.codes);
    snapshot.tombstone_words = std::move(exported.tombstone_words);
    snapshot.epoch = epoch;
    compacted_engine =
        serve::MakeQueryEngineFromSnapshot(std::move(snapshot), churn_options);
  }

  auto measure_qps = [&](serve::QueryEngine* engine) {
    Stopwatch watch;
    for (int pass = 0; pass < flags.churn_passes; ++pass) {
      serve::ReplayBatches(engine, query_batches, flags.k);
    }
    const double seconds = watch.ElapsedSeconds();
    return seconds > 0.0 ? flags.churn_passes *
                               static_cast<double>(queries.size()) / seconds
                         : 0.0;
  };
  std::vector<double> dead_qps_runs, compacted_qps_runs;
  for (int pair = 0; pair < kCompactionPairs; ++pair) {
    if (pair % 2 == 0) {
      dead_qps_runs.push_back(measure_qps(churn_engine.get()));
      compacted_qps_runs.push_back(measure_qps(compacted_engine.get()));
    } else {
      compacted_qps_runs.push_back(measure_qps(compacted_engine.get()));
      dead_qps_runs.push_back(measure_qps(churn_engine.get()));
    }
  }
  const PairedRatios pairs =
      SummarizePairs(std::move(dead_qps_runs), std::move(compacted_qps_runs));
  const std::vector<double>& ratios = pairs.ratios;
  const double dead_qps = serve::Percentile(pairs.a, 50.0);
  const double compacted_qps = serve::Percentile(pairs.b, 50.0);
  const double compaction_speedup = pairs.median;
  const double ratio_iqr = pairs.iqr;

  // Compacted results must be byte-identical — same distances, same
  // *global* ids — to the 50%-dead index, whether the compaction came
  // from hydration or from compacting the live engine in place.
  std::vector<std::vector<index::Neighbor>> before;
  before.reserve(static_cast<size_t>(queries.size()));
  for (int q = 0; q < queries.size(); ++q) {
    before.push_back(churn_engine->SearchOne(queries.code(q), flags.k));
  }
  Stopwatch compact_watch;
  const serve::CompactionStats compact_stats = churn_engine->Compact();
  const double compact_ms = compact_watch.ElapsedSeconds() * 1e3;
  auto same = [](const std::vector<index::Neighbor>& a,
                 const std::vector<index::Neighbor>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
    }
    return true;
  };
  int compact_mismatches = 0;
  for (int q = 0; q < queries.size(); ++q) {
    const auto& expect = before[static_cast<size_t>(q)];
    if (!same(churn_engine->SearchOne(queries.code(q), flags.k), expect) ||
        !same(compacted_engine->SearchOne(queries.code(q), flags.k),
              expect)) {
      ++compact_mismatches;
    }
  }

  TableWriter churn_table({"metric", "value"});
  churn_table.AddRow({"churn_total_ids", std::to_string(churn_total)});
  churn_table.AddRow({"churn_dead_fraction", Fmt(dead_fraction, "%.3f")});
  churn_table.AddRow(
      {"rows_reclaimed", std::to_string(compact_stats.rows_reclaimed)});
  churn_table.AddRow(
      {"shards_compacted", std::to_string(compact_stats.shards_compacted)});
  churn_table.AddRow({"compaction_ms", Fmt(compact_ms, "%.2f")});
  churn_table.AddRow({"scan_qps_50pct_dead", Fmt(dead_qps)});
  churn_table.AddRow({"scan_qps_compacted", Fmt(compacted_qps)});
  churn_table.AddRow({"compaction_ratios", JoinFmt(ratios, "%.2f", " ")});
  churn_table.AddRow(
      {"compaction_speedup_median", Fmt(compaction_speedup, "%.2f")});
  churn_table.AddRow({"compaction_ratio_iqr", Fmt(ratio_iqr, "%.2f")});
  churn_table.Print(std::cout);
  std::printf("compaction identity: %s\n",
              compact_mismatches == 0 ? "OK" : "MISMATCH");

  // Untimed instrumented pass over the compacted engine: every request
  // sampled, so the JSON's stage breakdown reflects this corpus.
  {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.SetSampleEvery(1);
    for (const index::PackedCodes& batch : query_batches) {
      obs::TraceContext ctx;
      ctx.trace_id = recorder.MaybeStartTrace();
      churn_engine->Search(batch, flags.k, ctx);
    }
    recorder.SetSampleEvery(0);
  }

  if (!flags.json.empty()) {
    std::FILE* f = std::fopen(flags.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr,
                   "WARNING: cannot write %s — perf trajectory not "
                   "recorded\n",
                   flags.json.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"update_throughput\",\n");
      WriteJsonRunMeta(f);
      WriteJsonStageBreakdown(f);
      std::fprintf(
          f,
          "  \"n\": %d, \"bits\": %d, \"k\": %d, \"queries\": %d, "
          "\"append_batch\": %d,\n",
          flags.n, flags.bits, flags.k, flags.queries, flags.append_batch);
      std::fprintf(
          f,
          "  \"appends_total\": %lld, \"removes_total\": %lld,\n"
          "  \"appends_per_sec\": %.1f, \"removes_per_sec\": %.1f,\n"
          "  \"concurrent_query_qps\": %.1f, \"query_p99_ms\": %.4f,\n"
          "  \"final_epoch\": %llu, \"live_codes\": %d, "
          "\"total_codes\": %d,\n  \"exact\": %s,\n",
          static_cast<long long>(appended.load()),
          static_cast<long long>(removed.load()), appends_per_sec,
          removes_per_sec, stats.qps(), stats.latency_p99_ms,
          static_cast<unsigned long long>(stats.epoch),
          engine->index().size(), engine->index().total_size(),
          mismatches == 0 ? "true" : "false");
      std::fprintf(
          f,
          "  \"churn_total_ids\": %d, \"churn_dead_fraction\": %.3f,\n"
          "  \"rows_reclaimed\": %d, \"shards_compacted\": %d,\n"
          "  \"compaction_ms\": %.2f,\n"
          "  \"scan_qps_50pct_dead\": %.1f, \"scan_qps_compacted\": %.1f,\n"
          "  \"compaction_ratios\": [%s],\n",
          churn_total, dead_fraction, compact_stats.rows_reclaimed,
          compact_stats.shards_compacted, compact_ms, dead_qps,
          compacted_qps, JoinFmt(ratios, "%.4f", ", ").c_str());
      std::fprintf(
          f,
          "  \"compaction_speedup\": %.2f, "
          "\"compaction_ratio_iqr\": %.4f, \"compact_exact\": %s\n}\n",
          compaction_speedup, ratio_iqr,
          compact_mismatches == 0 ? "true" : "false");
      std::fclose(f);
      std::printf("wrote %s\n", flags.json.c_str());
    }
  }

  if (mismatches != 0) {
    std::printf("\nFAIL: mutated engine diverged from fresh rebuild\n");
    return 1;
  }
  if (compact_mismatches != 0) {
    std::printf("\nFAIL: compaction changed results or global ids\n");
    return 1;
  }
  // The 10k appends/sec bar only means something at a corpus size where
  // queries genuinely contend with the writer; tiny smoke runs skip it.
  const bool gate_armed = flags.n >= 50000 && flags.target_appends >= 100000;
  std::printf("\nwriter sustained %.1f appends/sec (+%.1f removes/sec) "
              "with %.1f QPS of concurrent query traffic%s\n",
              appends_per_sec, removes_per_sec, stats.qps(),
              gate_armed ? "" : " [gate not armed at this size]");
  if (gate_armed && appends_per_sec < 10000.0) {
    std::printf("FAIL: append throughput below the 10k/sec acceptance "
                "bar\n");
    return 1;
  }
  std::printf("compaction: median %.2fx scan throughput vs the 50%%-dead "
              "corpus over %d pairs (IQR %.2f; %.1f -> %.1f QPS)%s\n",
              compaction_speedup, kCompactionPairs, ratio_iqr,
              dead_qps, compacted_qps,
              gate_armed ? "" : " [gate not armed at this size]");
  if (gate_armed && compaction_speedup < 1.5) {
    std::printf("FAIL: median compacted-scan ratio below the 1.5x "
                "acceptance bar\n");
    return 1;
  }
  return 0;
}

}  // namespace uhscm::bench

int main(int argc, char** argv) { return uhscm::bench::Main(argc, argv); }
