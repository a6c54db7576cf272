// The repo benchmark: one end-to-end UHSCM run per workload.
//
//   uhscm_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs the same stages through the library's public entry
// points with default serving options: three compute rounds of set-up
// (synthetic data), Train, encode + snapshot + hydrate and TopKJoin +
// DedupGroups, spread over the run; a k=1000 quality pass through the
// serving pipeline; open-loop serving cycles of two phases (low,
// overload) in two halves; and writes. The workloads differ in the inputs
// those stages see; see BENCHMARK.json and README.md beside this file.
// Outputs are checked against brute force; the last stdout line is the
// JSON result.
#include <immintrin.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "common/rng.h"
#include "core/concept_denoiser.h"
#include "core/concept_miner.h"
#include "core/hashing_network.h"
#include "core/losses.h"
#include "core/similarity.h"
#include "core/trainer.h"
#include "data/concept_vocab.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/retrieval_eval.h"
#include "index/batch_scan.h"
#include "index/linear_scan.h"
#include "index/packed_codes.h"
#include "index/self_join.h"
#include "io/serialize.h"
#include "loadgen.h"
#include "nn/sgd.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/serve_stats.h"
#include "vlp/simulated_vlp.h"

namespace uhscm_bench {
namespace {

using namespace uhscm;  // NOLINT: the benchmark drives every layer

constexpr int kBits = 64;
/// The semantic world (concept prototypes) and the training sample are
/// fixed; the seed draws the corpus, queries, traffic and writes.
constexpr uint64_t kWorldSeed = 2023;
constexpr uint64_t kTrainSeed = 4242;
constexpr int kQualityK = 1000;
constexpr int kServeK = 10;  // `uhscm_cli serve`'s default depth
constexpr int kJoinK = 10;   // `uhscm_cli dedup --k=10 --radius=3`
constexpr int kDedupRadius = 3;
constexpr int kDedupRows = 20000;
/// Sizes both workloads share: corpus rows (the dataset's database split),
/// training images (a fixed sample of the world), held-out queries of the
/// k=1000 quality pass, and held-out queries the serving phases draw from.
constexpr int kDatabase = 100000;
constexpr int kTrainImages = 1050;
constexpr int kEvalQueries = 400;
constexpr int kTrafficPool = 20000;
/// Serving shape of `uhscm_cli serve`'s defaults: 4 shards, everything
/// else the library default (1 replica, B=32, T=200us, 4096-entry cache,
/// scan backend, no hedging).
constexpr int kShards = 4;
/// The hot-set size the Zipf traffic is built around: the entries of the
/// default ResultCache.
constexpr int kCacheEntries = 4096;
/// Serving sub-phases. Every low sub-phase holds >= 1000 requests, so its
/// p99 has ten samples beyond it. The rates are the same on both
/// workloads; the overload rate is more than twice the capacity of
/// either.
constexpr double kLowRate = 1000.0;
constexpr double kOverloadRate = 100000.0;
constexpr double kWarmupSeconds = 2.0;
/// Warm-up of the second serving half, after a compute round.
constexpr double kRewarmSeconds = 0.5;
constexpr double kLowSeconds = 1.3;
constexpr double kOverloadSeconds = 0.6;
constexpr double kCycleSeconds = kLowSeconds + kOverloadSeconds;
/// serve.peak_qps is the best completion rate over windows of this length:
/// four tile the measured 80% of an overload sub-phase.
constexpr double kPeakWindowSeconds = 0.12;
/// Writes after the phases on a workload whose phases write nothing: bursts
/// spread over time, so one host hiccup does not set their p90.
constexpr int kQuietBursts = 8;
constexpr int kQuietWritesPerBurst = 100;
constexpr auto kQuietBurstGap = std::chrono::milliseconds(100);

/// What sets one workload apart.
struct WorkloadSpec {
  const char* name;
  int fresh_rows;     ///< held-out rows the writes append
  double zipf_s;      ///< 0: requests walk the pool in order; else Zipf
  double write_rate;  ///< writer ops/s during the phases (0: writes after)
  int write_rows;     ///< rows per Append / ids per RemoveIds
  double compact_dead_fraction;  ///< auto-compaction threshold (0: off)
};

constexpr WorkloadSpec kWorkloads[] = {
    {"serve_unique", 4096, 0.0, 0.0, 1024, 0.0},
    {"serve_hot_churn", 16384, 1.0, 10.0, 32, 0.0008},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/uhscm_bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || args->workload.empty() || args->seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: uhscm_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return false;
  }
  return true;
}

/// What set-up produces: the synthetic world, the training images and
/// the workload's dataset (corpus plus held-out rows).
struct Inputs {
  std::unique_ptr<data::SemanticWorld> world;
  linalg::Matrix train_pixels;
  data::Dataset dataset;
  data::ConceptVocab vocab;
  std::unique_ptr<vlp::SimulatedVlpModel> vlp;
};

Inputs MakeInputs(const WorkloadSpec& w, uint64_t seed) {
  Inputs in;
  in.world = std::make_unique<data::SemanticWorld>(kWorldSeed);
  // The training sample is the same for every seed, so every run trains
  // the same model: Train is the same work each run, and the corpus codes
  // the self-join and the scan see have the same distribution.
  data::SyntheticOptions train_options = data::DefaultOptionsFor("nuswide");
  train_options.sizes = {kTrainImages, kTrainImages, 0};
  Rng train_rng(kTrainSeed);
  in.train_pixels =
      data::MakeNusWideLike(in.world.get(), train_options, &train_rng).pixels;
  data::SyntheticOptions options = data::DefaultOptionsFor("nuswide");
  options.sizes.database = kDatabase;
  options.sizes.train = 0;
  options.sizes.query = kEvalQueries + kTrafficPool + w.fresh_rows;
  Rng rng(seed * 7919 + 17);
  in.dataset = data::MakeNusWideLike(in.world.get(), options, &rng);
  in.vocab = data::MakeNusVocab(in.world.get());
  in.vlp = std::make_unique<vlp::SimulatedVlpModel>(in.world.get());
  return in;
}

/// Rows [begin, end) of the dataset's pixel matrix.
std::vector<int> RowRange(int begin, int end) {
  std::vector<int> rows(static_cast<size_t>(end - begin));
  for (int i = begin; i < end; ++i) rows[static_cast<size_t>(i - begin)] = i;
  return rows;
}

/// Encodes dataset rows [begin, end) to packed codes in chunks, so the
/// full real-valued code matrix never exists at once.
index::PackedCodes EncodeRows(core::UhscmModel* model,
                              const linalg::Matrix& pixels, int begin,
                              int end, double* encode_seconds,
                              double* pack_seconds) {
  constexpr int kChunk = 8192;
  std::vector<uint64_t> words;
  for (int lo = begin; lo < end; lo += kChunk) {
    const int hi = std::min(end, lo + kChunk);
    const linalg::Matrix chunk = pixels.SelectRows(RowRange(lo, hi));
    int64_t t0 = NowNs();
    const linalg::Matrix codes = model->Encode(chunk);
    *encode_seconds += SecondsSince(t0);
    t0 = NowNs();
    const index::PackedCodes packed = index::PackedCodes::FromSignMatrix(codes);
    words.insert(words.end(), packed.words().begin(), packed.words().end());
    *pack_seconds += SecondsSince(t0);
  }
  return index::PackedCodes::FromRawWords(end - begin, kBits,
                                          std::move(words));
}

/// Rows [begin, end) of `codes` as their own PackedCodes.
index::PackedCodes SliceCodes(const index::PackedCodes& codes, int begin,
                              int end) {
  const int wpc = codes.words_per_code();
  std::vector<uint64_t> words(codes.words().begin() + static_cast<size_t>(begin) * wpc,
                              codes.words().begin() + static_cast<size_t>(end) * wpc);
  return index::PackedCodes::FromRawWords(end - begin, codes.bits(),
                                          std::move(words));
}

/// {-1,+1} matrix of packed codes (what eval::EvaluateRetrieval takes).
linalg::Matrix SignMatrix(const index::PackedCodes& codes) {
  linalg::Matrix m(codes.size(), codes.bits());
  for (int i = 0; i < codes.size(); ++i) {
    const std::vector<float> row = codes.Unpack(i);
    std::copy(row.begin(), row.end(), m.Row(i));
  }
  return m;
}

double Best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

bool SameNeighbors(const std::vector<index::Neighbor>& a,
                   const std::vector<index::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  }
  return true;
}

/// Exact top-k of `query` over the live rows of a (gid -> code) mirror,
/// ordered by (distance, id).
std::vector<index::Neighbor> BruteForceTopK(
    const std::vector<uint64_t>& words, const std::vector<uint8_t>& live,
    int wpc, const uint64_t* query, int k) {
  std::vector<index::Neighbor> all;
  for (size_t g = 0; g < live.size(); ++g) {
    if (!live[g]) continue;
    all.push_back({static_cast<int>(g),
                   index::HammingDistance(words.data() + g * wpc, query, wpc)});
  }
  const size_t keep = std::min(all.size(), static_cast<size_t>(k));
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end(), index::NeighborLess);
  all.resize(keep);
  return all;
}

/// Keeps every CPU from going idle while it lives: one SCHED_IDLE thread
/// per CPU spins with a pause hint. The kernel runs a SCHED_IDLE thread
/// only when nothing else wants that CPU and preempts it at once, so it
/// takes no CPU time from the program; what it removes is the wake-up of
/// an idle (halted) virtual CPU, which on a shared host costs milliseconds
/// and would otherwise set every serving latency. The guest-side
/// equivalent of booting with idle=poll. The host still sees the spinning
/// virtual CPUs as busy, which slowed the compute stages, so it only runs
/// while the program serves.
class IdlePoller {
 public:
  IdlePoller() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
      });
    }
  }
  ~IdlePoller() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Checker shared by the stages: counts failures and prints the first few.
struct Checks {
  int64_t failures = 0;
  void Expect(bool ok, const char* what) {
    if (ok) return;
    if (failures < 8) std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++failures;
  }
};

/// Everything one run measures; printed as end-to-end or per-layer
/// metrics at the end.
struct Measured {
  double setup_s = 0;
  double train_s = 0, train_cpu_s = 0, build_similarity_s = 0;
  int epochs = 0;
  double vlp_score_s = 0, denoise_s = 0, similarity_s = 0;
  double nn_step_ms = 0, loss_ms = 0;
  double encode_s = 0, encode_cpu_s = 0, encode_only_s = 0, pack_s = 0,
         hydrate_s = 0;
  int64_t encoded_rows = 0;
  double map_at_1000 = 0;
  double dedup_s = 0, dedup_cpu_s = 0, topk_join_s = 0, radius_join_s = 0;
  double join_pruned_share = 0, join_tiles = 0;
  std::vector<PhaseResult> phases;  // recorded serving sub-phases
  std::vector<double> append_ms, remove_ms;
  uint64_t epoch_before = 0, epoch_after = 0;
  double scan_us_per_query = 0;
  int64_t attempted = 0, failed = 0;
};

/// Runs Algorithm 1's similarity steps one by one, as the trainer does,
/// timing each layer (traced run only).
void ProbeSimilarity(const Inputs& in, const linalg::Matrix& train_px,
                     const core::UhscmConfig& config, SpanRecorder* spans,
                     Measured* m) {
  core::ConceptMinerOptions miner_options;
  miner_options.tau_multiplier = config.tau_multiplier;
  miner_options.prompt = config.prompt;
  core::ConceptMiner miner(in.vlp.get(), miner_options);
  linalg::Matrix scores;
  {
    ScopedSpan s(spans, "vlp.score");
    scores = miner.ScoreConcepts(train_px, in.vocab);
    m->vlp_score_s += s.Seconds();
  }
  const linalg::Matrix d = miner.DistributionsFromScores(scores);
  core::DenoiseResult denoised;
  {
    ScopedSpan s(spans, "core.denoise");
    denoised = core::DenoiseConcepts(d, in.vocab);
    m->denoise_s = s.Seconds();
  }
  core::ConceptMinerOptions pinned = miner_options;
  pinned.tau_concepts_override = in.vocab.size();
  core::ConceptMiner pinned_miner(in.vlp.get(), pinned);
  linalg::Matrix clean_scores;
  {
    ScopedSpan s(spans, "vlp.score");
    clean_scores = pinned_miner.ScoreConcepts(train_px, denoised.vocab);
    m->vlp_score_s += s.Seconds();
  }
  const linalg::Matrix d_clean =
      pinned_miner.DistributionsFromScores(clean_scores);
  {
    ScopedSpan s(spans, "core.similarity");
    const linalg::Matrix q = core::SimilarityFromDistributions(d_clean);
    m->similarity_s = s.Seconds();
  }
}

/// One SGD step of the hashing network on a 128-row batch, timed by
/// layer: nn (Forward + Backward + Step) and core (UhscmBatchLoss).
void ProbeStep(const linalg::Matrix& train_px, const core::UhscmConfig& config,
               const linalg::Matrix& similarity, SpanRecorder* spans,
               Measured* m) {
  Rng rng(config.seed);
  core::HashingNetworkOptions net_options = config.network;
  net_options.bits = config.bits;
  core::HashingNetwork net(train_px.cols(), net_options, &rng);
  nn::SgdOptions sgd;
  sgd.learning_rate = config.learning_rate;
  sgd.momentum = config.momentum;
  sgd.weight_decay = config.weight_decay;
  nn::SgdOptimizer optimizer(net.model(), sgd);
  core::UhscmLossOptions loss_options;
  loss_options.alpha = config.alpha;
  loss_options.beta = config.beta;
  loss_options.gamma = config.gamma;
  loss_options.lambda = config.lambda;
  const int t = std::min(config.batch_size, train_px.rows());
  const std::vector<int> rows = RowRange(0, t);
  const linalg::Matrix x = train_px.SelectRows(rows);
  linalg::Matrix q(t, t);
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) q(i, j) = similarity(i, j);
  }
  std::vector<double> step_ms, loss_ms;
  for (int rep = 0; rep < 15; ++rep) {
    optimizer.ZeroGrad();
    ScopedSpan step(spans, "nn.step");
    int64_t t0 = NowNs();
    const linalg::Matrix z = net.Forward(x);
    double nn_ns = static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    core::LossAndGrad lg;
    {
      ScopedSpan loss(spans, "core.loss", step.id());
      lg = core::UhscmBatchLoss(z, q, loss_options);
    }
    loss_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    t0 = NowNs();
    net.Backward(lg.dz);
    optimizer.Step();
    nn_ns += static_cast<double>(NowNs() - t0);
    step_ms.push_back(nn_ns * 1e-6);
  }
  m->nn_step_ms = Median(step_ms);
  m->loss_ms = Median(loss_ms);
}

/// The writer of serve_hot_churn, and the post-phase writes of
/// serve_unique: alternates Append of fresh rows and RemoveIds of random
/// live rows, keeping a gid -> code mirror for the brute-force check.
class Writer {
 public:
  Writer(serve::ReplicaSet* replicas, const index::PackedCodes& corpus,
         const index::PackedCodes& fresh, int rows_per_op, uint64_t seed)
      : replicas_(replicas),
        fresh_(fresh),
        rows_per_op_(rows_per_op),
        wpc_(corpus.words_per_code()),
        rng_(seed),
        words_(corpus.words()),
        live_(static_cast<size_t>(corpus.size()), 1) {
    live_ids_ = RowRange(0, corpus.size());
  }

  /// One write; returns false if the program misbehaved.
  bool Step(SpanRecorder* spans) {
    const bool append = (ops_++ % 2) == 0;
    if (append) {
      const int begin = fresh_next_;
      const int end = std::min(fresh_.size(), begin + rows_per_op_);
      fresh_next_ = end >= fresh_.size() ? 0 : end;
      const index::PackedCodes rows = SliceCodes(fresh_, begin, end);
      const int64_t t0 = NowNs();
      const std::vector<int> ids = replicas_->Append(rows);
      const int64_t t1 = NowNs();
      spans->Record("serve.append", t0, t1);
      append_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      writes.push_back({t0, append_ms.back()});
      if (ids.size() != static_cast<size_t>(rows.size())) return false;
      for (size_t i = 0; i < ids.size(); ++i) {
        const size_t g = static_cast<size_t>(ids[i]);
        if (g < live_.size()) return false;  // ids only grow
        words_.resize((g + 1) * wpc_);
        live_.resize(g + 1, 0);
        std::copy(rows.code(static_cast<int>(i)),
                  rows.code(static_cast<int>(i)) + wpc_,
                  words_.begin() + static_cast<ptrdiff_t>(g * wpc_));
        live_[g] = 1;
        live_ids_.push_back(static_cast<int>(g));
      }
      return true;
    }
    std::vector<int> victims;
    for (int i = 0; i < rows_per_op_ && !live_ids_.empty(); ++i) {
      const size_t pick = rng_.UniformInt(live_ids_.size());
      victims.push_back(live_ids_[pick]);
      live_ids_[pick] = live_ids_.back();
      live_ids_.pop_back();
    }
    const int64_t t0 = NowNs();
    const int removed = replicas_->RemoveIds(victims);
    const int64_t t1 = NowNs();
    spans->Record("serve.remove_ids", t0, t1);
    remove_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    writes.push_back({t0, remove_ms.back()});
    for (int g : victims) live_[static_cast<size_t>(g)] = 0;
    return removed == static_cast<int>(victims.size());
  }

  const std::vector<uint64_t>& words() const { return words_; }
  const std::vector<uint8_t>& live() const { return live_; }
  int64_t ops() const { return ops_; }
  std::vector<double> append_ms, remove_ms;
  /// Every write as (start ns, milliseconds), in issue order.
  std::vector<std::pair<int64_t, double>> writes;

 private:
  serve::ReplicaSet* replicas_;
  const index::PackedCodes& fresh_;
  const int rows_per_op_;
  const size_t wpc_;
  Rng rng_;
  int fresh_next_ = 0;
  int64_t ops_ = 0;
  std::vector<uint64_t> words_;
  std::vector<uint8_t> live_;
  std::vector<int> live_ids_;  // unordered; removal swaps with the last
};

/// What a compute round builds: the inputs, the trained model, every
/// encoded row, the serving stack hydrated from the corpus snapshot, and
/// the self-join's results.
struct Built {
  Inputs in;
  core::UhscmModel model;
  index::PackedCodes corpus, eval_q, traffic, fresh;
  std::unique_ptr<serve::ReplicaSet> replicas;
  std::vector<std::vector<index::Neighbor>> knn;
  index::DedupGroupsResult groups;
  int64_t join_pairs_total = 0;
};

/// Stage times of one compute round.
struct RoundTimes {
  double setup_s = 0, train_s = 0;
  double encode_s = 0, encode_only_s = 0, pack_s = 0, hydrate_s = 0;
  double dedup_s = 0, topk_join_s = 0, radius_join_s = 0;
  double train_cpu_s = 0, encode_cpu_s = 0, dedup_cpu_s = 0;
};

/// One compute round: set-up, Train, encode + snapshot + hydrate, and the
/// self-join over the first kDedupRows corpus rows. Returns false if a
/// stage failed so badly that the run cannot go on.
bool ComputeRound(const WorkloadSpec& w, const Args& args, SpanRecorder* spans,
                  Checks* checks, Built* b, RoundTimes* t) {
  {
    ScopedSpan s(spans, "data.synth");
    b->in = MakeInputs(w, args.seed);
    t->setup_s = s.Seconds();
  }
  {
    const core::UhscmConfig config = core::DefaultConfigFor("nuswide", kBits);
    core::UhscmTrainer trainer(b->in.vlp.get(), config);
    ScopedSpan s(spans, "core.train");
    const double cpu0 = ProcessCpuSeconds();
    Result<core::UhscmModel> trained =
        trainer.Train(b->in.train_pixels, b->in.vocab);
    t->train_s = s.Seconds();
    t->train_cpu_s = ProcessCpuSeconds() - cpu0;
    checks->Expect(trained.ok(), "Train returned an error");
    if (!trained.ok()) return false;
    b->model = std::move(trained).ValueOrDie();
  }

  // Encode every row, pack, write the corpus as an io snapshot, load it
  // back and hydrate the serving stack from it, as a deployment does.
  const linalg::Matrix& pixels = b->in.dataset.pixels;
  const int traffic_base = kDatabase + kEvalQueries;
  const int fresh_base = traffic_base + kTrafficPool;
  const std::string snap_path = args.out_dir + "/" + w.name + ".snapshot";
  const double encode_cpu0 = ProcessCpuSeconds();
  {
    ScopedSpan stage(spans, "bench.encode");
    {
      ScopedSpan s(spans, "core.encode", stage.id());
      b->corpus = EncodeRows(&b->model, pixels, 0, kDatabase,
                             &t->encode_only_s, &t->pack_s);
      b->eval_q = EncodeRows(&b->model, pixels, kDatabase, traffic_base,
                             &t->encode_only_s, &t->pack_s);
      b->traffic = EncodeRows(&b->model, pixels, traffic_base, fresh_base,
                              &t->encode_only_s, &t->pack_s);
      b->fresh = EncodeRows(&b->model, pixels, fresh_base, pixels.rows(),
                            &t->encode_only_s, &t->pack_s);
    }
    {
      ScopedSpan s(spans, "io.save_snapshot", stage.id());
      io::CodesSnapshot snap;
      snap.codes = b->corpus;
      const Status st = io::SaveCodesSnapshot(snap, snap_path);
      checks->Expect(st.ok(), "SaveCodesSnapshot failed");
    }
    const int64_t hydrate_start = NowNs();
    Result<io::CodesSnapshot> loaded = [&] {
      ScopedSpan s(spans, "io.load_snapshot", stage.id());
      return io::LoadCodesSnapshot(snap_path);
    }();
    checks->Expect(loaded.ok(), "LoadCodesSnapshot failed");
    if (!loaded.ok()) return false;
    checks->Expect(loaded->codes.words() == b->corpus.words(),
                   "snapshot round trip changed the corpus");
    serve::ReplicaSetOptions options;
    options.serving.index.num_shards = kShards;
    options.serving.engine.compact_dead_fraction = w.compact_dead_fraction;
    {
      ScopedSpan s(spans, "serve.hydrate", stage.id());
      b->replicas = std::make_unique<serve::ReplicaSet>(*loaded, options);
    }
    t->hydrate_s = SecondsSince(hydrate_start);
    t->encode_s = stage.Seconds();
  }
  t->encode_cpu_s = ProcessCpuSeconds() - encode_cpu0;
  std::error_code ec;
  std::filesystem::remove(snap_path, ec);
  b->in.dataset.pixels = linalg::Matrix();  // labels stay for the quality pass

  const index::PackedCodes rows =
      SliceCodes(b->corpus, 0, std::min(kDedupRows, b->corpus.size()));
  ScopedSpan stage(spans, "bench.dedup");
  const double dedup_cpu0 = ProcessCpuSeconds();
  index::SelfJoinStats topk_stats;
  {
    ScopedSpan s(spans, "index.topk_join", stage.id());
    b->knn = index::TopKJoin(rows, kJoinK, {}, &topk_stats);
    t->topk_join_s = s.Seconds();
  }
  index::DedupOptions dedup;
  dedup.radius = kDedupRadius;
  {
    ScopedSpan s(spans, "index.dedup_groups", stage.id());
    b->groups = index::DedupGroups(rows, dedup);
    t->radius_join_s = s.Seconds();
  }
  t->dedup_s = stage.Seconds();
  t->dedup_cpu_s = ProcessCpuSeconds() - dedup_cpu0;
  b->join_pairs_total = topk_stats.pairs_total + b->groups.join.pairs_total;
  return true;
}

/// A later round runs the same work on the same inputs, so it must build
/// exactly what the first round built.
void ExpectSameBuild(const Built& a, const Built& b, Checks* checks) {
  checks->Expect(a.model.epoch_losses == b.model.epoch_losses,
                 "Train is not deterministic on the same inputs");
  checks->Expect(a.corpus.words() == b.corpus.words(),
                 "encoding the same inputs gave other codes");
  bool same = a.knn.size() == b.knn.size() && a.groups.groups == b.groups.groups;
  for (size_t i = 0; same && i < a.knn.size(); ++i) {
    same = SameNeighbors(a.knn[i], b.knn[i]);
  }
  checks->Expect(same, "the self-join of the same codes gave other results");
}

/// Brute-force check of TopKJoin and DedupGroups on a seeded sample of the
/// joined rows.
void CheckSelfJoin(const Built& b, uint64_t seed, Checks* checks) {
  const index::PackedCodes rows =
      SliceCodes(b.corpus, 0, std::min(kDedupRows, b.corpus.size()));
  std::vector<int> group_of(static_cast<size_t>(rows.size()), -1);
  for (size_t g = 0; g < b.groups.groups.size(); ++g) {
    for (int r : b.groups.groups[g]) {
      group_of[static_cast<size_t>(r)] = static_cast<int>(g);
    }
  }
  Rng rng(seed + 99);
  for (int sample = 0; sample < 48; ++sample) {
    const int i = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(rows.size())));
    std::vector<index::Neighbor> all;
    bool has_dup = false, same_group = true;
    for (int j = 0; j < rows.size(); ++j) {
      if (j == i) continue;
      const int d = rows.Distance(i, j);
      all.push_back({j, d});
      if (d <= kDedupRadius) {
        has_dup = true;
        same_group = same_group && group_of[static_cast<size_t>(i)] >= 0 &&
                     group_of[static_cast<size_t>(i)] ==
                         group_of[static_cast<size_t>(j)];
      }
    }
    std::partial_sort(all.begin(), all.begin() + kJoinK, all.end(),
                      index::NeighborLess);
    all.resize(kJoinK);
    checks->Expect(SameNeighbors(all, b.knn[static_cast<size_t>(i)]),
                   "TopKJoin row differs from brute force");
    checks->Expect(same_group, "DedupGroups split a within-radius pair");
    checks->Expect(has_dup == (group_of[static_cast<size_t>(i)] >= 0),
                   "DedupGroups grouped a row with no duplicate");
  }
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  SpanRecorder spans(args.trace);
  Checks checks;
  Measured m;
  const int64_t run_start = NowNs();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  double tiles_before = 0.0, pruned_before = 0.0;
  {
    const std::string before = registry.DumpJson();
    RegistryValue(before, "join.tiles", &tiles_before);
    RegistryValue(before, "join.pairs_pruned", &pruned_before);
  }

  // ------------------------------------------------------ compute rounds
  // The first round builds what the serving stages use. The other rounds
  // redo the same work, one between the two serving halves and one after
  // them, so a host episode of a few seconds slows one round, not all.
  std::vector<RoundTimes> rounds;
  int64_t join_pairs_total = 0;
  Built base;
  auto compute_round = [&](Built* b) {
    RoundTimes t;
    const bool ok = ComputeRound(w, args, &spans, &checks, b, &t);
    rounds.push_back(t);
    join_pairs_total += b->join_pairs_total;
    return ok;
  };
  auto later_round = [&] {
    Built b;
    if (!compute_round(&b)) return false;
    ExpectSameBuild(base, b, &checks);
    return true;
  };
  if (!compute_round(&base)) return 1;
  m.epochs = static_cast<int>(base.model.epoch_losses.size());
  m.encoded_rows = kDatabase + kEvalQueries + kTrafficPool + w.fresh_rows;
  if (args.trace) {
    const core::UhscmConfig config = core::DefaultConfigFor("nuswide", kBits);
    core::UhscmTrainer trainer(base.in.vlp.get(), config);
    {
      ScopedSpan s(&spans, "core.build_similarity");
      Rng rng(config.seed);
      Result<core::UhscmTrainer::SimilarityArtifacts> sim =
          trainer.BuildSimilarity(base.in.train_pixels, base.in.vocab, &rng);
      m.build_similarity_s = s.Seconds();
      checks.Expect(sim.ok(), "BuildSimilarity returned an error");
    }
    ProbeSimilarity(base.in, base.in.train_pixels, config, &spans, &m);
    ProbeStep(base.in.train_pixels, config, base.model.similarity, &spans, &m);
  }
  CheckSelfJoin(base, args.seed, &checks);

  const data::Dataset& ds = base.in.dataset;
  const index::PackedCodes& corpus = base.corpus;
  const index::PackedCodes& eval_q = base.eval_q;
  const index::PackedCodes& traffic = base.traffic;
  serve::Router router(base.replicas.get());
  serve::Batcher batcher(&router);
  m.epoch_before = base.replicas->epoch();

  // The serving stages are measured with idle CPUs kept polling; the
  // compute rounds are not, since the pollers slowed Train, encode and the
  // self-join by about 10%.
  std::optional<IdlePoller> poller;
  poller.emplace();

  // ------------------------------------- quality pass: k=1000, mAP@1000
  {
    ScopedSpan stage(&spans, "bench.quality");
    std::vector<std::future<serve::SearchResponse>> futures;
    futures.reserve(static_cast<size_t>(eval_q.size()));
    for (int q = 0; q < eval_q.size(); ++q) {
      futures.push_back(batcher.Submit(eval_q, q, kQualityK));
    }
    std::vector<std::vector<index::Neighbor>> served(futures.size());
    for (size_t q = 0; q < futures.size(); ++q) {
      serve::SearchResponse r = futures[q].get();
      checks.Expect(r.status.ok(), "quality-pass request failed");
      served[q] = std::move(r.neighbors);
    }
    m.attempted += eval_q.size();
    const index::LinearScanIndex scan(corpus);
    double ap_sum = 0.0;
    for (int q = 0; q < eval_q.size(); ++q) {
      const auto& list = served[static_cast<size_t>(q)];
      checks.Expect(SameNeighbors(list, scan.TopK(eval_q.code(q), kQualityK)),
                    "served k=1000 list differs from LinearScanIndex::TopK");
      std::vector<bool> relevant(list.size());
      for (size_t r = 0; r < list.size(); ++r) {
        relevant[r] = ds.Relevant(kDatabase + q, list[r].id);
      }
      ap_sum += eval::AveragePrecision(relevant, kQualityK);
    }
    m.map_at_1000 = ap_sum / std::max(eval_q.size(), 1);
    // The paper's evaluator on the same codes must agree exactly.
    data::Dataset eval_ds;
    eval_ds.labels = ds.labels;
    eval_ds.split.database = ds.split.database;
    eval_ds.split.query = RowRange(kDatabase, kDatabase + kEvalQueries);
    eval::RetrievalEvalOptions eval_options;
    eval_options.map_at = kQualityK;
    eval_options.topn_points.clear();
    ScopedSpan s(&spans, "eval.evaluate_retrieval", stage.id());
    const eval::RetrievalEvalResult ref = eval::EvaluateRetrieval(
        eval_ds, SignMatrix(corpus), SignMatrix(eval_q), eval_options);
    checks.Expect(ref.map == m.map_at_1000,
                  "mAP@1000 from served lists differs from EvaluateRetrieval");
    checks.Expect(m.map_at_1000 > 0.0, "mAP@1000 is zero");
  }

  // ------------------------------------------------ open-loop serving
  // Interleaved cycles of (low, overload): each metric is taken per
  // sub-phase, and the end-to-end metrics take the best sub-phase, so a
  // host-side stall that covers part of the run does not set the result.
  // The cycles run in two halves with a compute round between them.
  const int cycles = std::max(
      2, static_cast<int>(std::lround(args.seconds / kCycleSeconds)));
  ZipfSampler zipf(traffic.size(), w.zipf_s > 0.0 ? w.zipf_s : 1.0);
  std::vector<int> hot_order = RowRange(0, traffic.size());
  Rng pick_rng(args.seed * 31 + 5);
  pick_rng.Shuffle(&hot_order);
  std::function<int(int64_t)> pick;
  if (w.zipf_s > 0.0) {
    std::printf("Zipf traffic: the %d hottest of %d queries take %.1f%% of "
                "requests\n",
                kCacheEntries, traffic.size(), 100.0 * zipf.HeadShare(kCacheEntries));
    pick = [&](int64_t) {
      return hot_order[static_cast<size_t>(zipf.Sample(pick_rng.Uniform()))];
    };
  } else {
    // Walks the pool in order; a query comes back only after the pool
    // (larger than the cache) has gone by, so the LRU cache never hits.
    pick = [&](int64_t seq) { return static_cast<int>(seq % traffic.size()); };
  }
  std::vector<SampledResponse> sampled;
  Writer writer(base.replicas.get(), corpus, base.fresh, w.write_rows,
                args.seed + 7);
  bool writer_ok = true;
  int64_t next_seq = 0;
  auto serve_half = [&](int half, double warmup_seconds, int num_cycles) {
    LoadPlan plan;
    plan.queries = &traffic;
    plan.k = kServeK;
    plan.seed = args.seed * 2 + static_cast<uint64_t>(half);
    plan.sample_every = w.write_rate > 0.0 ? 0 : 53;
    plan.pick = pick;
    plan.phases.push_back({"warmup", kLowRate, warmup_seconds, false});
    for (int c = 0; c < num_cycles; ++c) {
      plan.phases.push_back({"low", kLowRate, kLowSeconds, true});
      plan.phases.push_back(
          {"overload", kOverloadRate, kOverloadSeconds, true, true});
    }
    ScopedSpan stage(&spans, "bench.serve");
    std::atomic<bool> stop_writer{false};
    std::thread writer_thread;
    if (w.write_rate > 0.0) {
      writer_thread = std::thread([&] {
        const int64_t start = NowNs();
        for (int64_t i = 0; !stop_writer.load(); ++i) {
          const int64_t due =
              start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / w.write_rate);
          while (NowNs() < due && !stop_writer.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
          if (stop_writer.load()) break;
          writer_ok = writer.Step(&spans) && writer_ok;
        }
      });
    }
    std::vector<PhaseResult> got =
        RunOpenLoop(plan, &batcher, &spans, &sampled, &next_seq);
    stop_writer.store(true);
    if (writer_thread.joinable()) writer_thread.join();
    for (PhaseResult& p : got) m.phases.push_back(std::move(p));
  };
  serve_half(0, kWarmupSeconds, (cycles + 1) / 2);
  poller.reset();
  if (!later_round()) return 1;
  poller.emplace();
  serve_half(1, kRewarmSeconds, cycles / 2);
  checks.Expect(writer_ok, "a write returned an unexpected result");
  for (const PhaseResult& p : m.phases) {
    m.attempted += p.sent + p.abandoned;
    m.failed += p.failed;
  }

  // Writes after the phases on the workload whose phases write nothing.
  if (w.write_rate <= 0.0) {
    ScopedSpan stage(&spans, "bench.writes");
    for (int burst = 0; burst < kQuietBursts; ++burst) {
      if (burst > 0) std::this_thread::sleep_for(kQuietBurstGap);
      for (int i = 0; i < kQuietWritesPerBurst; ++i) {
        checks.Expect(writer.Step(&spans), "a write returned an unexpected result");
      }
    }
  }
  m.append_ms = writer.append_ms;
  m.remove_ms = writer.remove_ms;
  m.attempted += writer.ops();
  m.epoch_after = base.replicas->epoch();

  // Output checks of the served responses.
  {
    ScopedSpan stage(&spans, "bench.check");
    if (!sampled.empty()) {
      const index::LinearScanIndex scan(corpus);
      for (const SampledResponse& r : sampled) {
        checks.Expect(
            SameNeighbors(r.neighbors, scan.TopK(traffic.code(r.query_row), kServeK)),
            "served response differs from brute force");
      }
    }
    // After the writes: sampled queries against the live rows.
    Rng rng(args.seed + 1234);
    for (int sample = 0; sample < 48; ++sample) {
      const int q = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(traffic.size())));
      serve::SearchResponse r = batcher.Submit(traffic, q, kServeK).get();
      checks.Expect(r.status.ok(), "post-write request failed");
      checks.Expect(
          SameNeighbors(r.neighbors,
                        BruteForceTopK(writer.words(), writer.live(),
                                       traffic.words_per_code(),
                                       traffic.code(q), kServeK)),
          "post-write response differs from brute force over live rows");
    }
    m.attempted += 48;
  }
  poller.reset();
  if (!later_round()) return 1;

  // The compute rounds: set-up reports the median, the deterministic
  // stages the least time of a round, since host interference only ever
  // adds time.
  auto over_rounds = [&](double RoundTimes::*field) {
    std::vector<double> v;
    for (const RoundTimes& t : rounds) v.push_back(t.*field);
    return v;
  };
  m.setup_s = Median(over_rounds(&RoundTimes::setup_s));
  m.train_s = Best(over_rounds(&RoundTimes::train_s));
  m.train_cpu_s = Best(over_rounds(&RoundTimes::train_cpu_s));
  m.encode_s = Best(over_rounds(&RoundTimes::encode_s));
  m.encode_cpu_s = Best(over_rounds(&RoundTimes::encode_cpu_s));
  m.encode_only_s = Best(over_rounds(&RoundTimes::encode_only_s));
  m.pack_s = Best(over_rounds(&RoundTimes::pack_s));
  m.hydrate_s = Best(over_rounds(&RoundTimes::hydrate_s));
  m.dedup_s = Best(over_rounds(&RoundTimes::dedup_s));
  m.dedup_cpu_s = Best(over_rounds(&RoundTimes::dedup_cpu_s));
  m.topk_join_s = Best(over_rounds(&RoundTimes::topk_join_s));
  m.radius_join_s = Best(over_rounds(&RoundTimes::radius_join_s));
  m.attempted += static_cast<int64_t>(rounds.size());
  // join.* counters are cumulative; the deltas cover every round.
  {
    const std::string after = registry.DumpJson();
    double tiles_after = 0.0, pruned_after = 0.0;
    if (RegistryValue(after, "join.tiles", &tiles_after)) {
      m.join_tiles = (tiles_after - tiles_before) / static_cast<double>(rounds.size());
    }
    if (RegistryValue(after, "join.pairs_pruned", &pruned_after) &&
        join_pairs_total > 0) {
      m.join_pruned_share = (pruned_after - pruned_before) /
                            static_cast<double>(join_pairs_total);
    }
  }

  // Group the sub-phases by kind.
  std::vector<const PhaseResult*> lows, overloads;
  for (const PhaseResult& p : m.phases) {
    if (p.name == "low") lows.push_back(&p);
    if (p.name == "overload") overloads.push_back(&p);
  }
  for (const auto& [label, group] :
       {std::pair<const char*, const std::vector<const PhaseResult*>*>{"low", &lows},
        {"overload", &overloads}}) {
    int64_t sent = 0, succeeded = 0, failed = 0, abandoned = 0;
    for (const PhaseResult* p : *group) {
      sent += p->sent;
      succeeded += p->succeeded;
      failed += p->failed;
      abandoned += p->abandoned;
    }
    std::printf("%-8s x%zu: sent %lld, succeeded %lld, failed or refused %lld "
                "(never sent %lld)\n",
                label, group->size(), static_cast<long long>(sent),
                static_cast<long long>(succeeded), static_cast<long long>(failed),
                static_cast<long long>(abandoned));
  }
  int64_t overload_queries = 0, overload_batches = 0;
  double overload_busy = 0.0, overload_wall = 0.0;
  for (const PhaseResult* p : overloads) {
    overload_queries += p->queries;
    overload_batches += p->batches;
    overload_busy += p->busy_seconds;
    overload_wall += p->wall_seconds;
  }
  const double mean_batch =
      overload_batches > 0
          ? static_cast<double>(overload_queries) / overload_batches
          : 0.0;

  // Direct scan of the corpus at the observed mean batch size.
  if (args.trace) {
    const int b = std::max(1, static_cast<int>(std::lround(mean_batch)));
    const index::PackedCodes batch = SliceCodes(traffic, 0, b);
    std::vector<double> per_query_us;
    for (int rep = 0; rep < 30; ++rep) {
      ScopedSpan s(&spans, "index.batch_topk");
      const auto result = index::BatchTopK(corpus, batch, kServeK);
      per_query_us.push_back(s.Seconds() * 1e6 / b);
    }
    m.scan_us_per_query = Median(per_query_us);
  }
  batcher.Drain();

  // ------------------------------------------------------------ report
  // Per sub-phase values, then the median over the sub-phases of a kind.
  auto median_over = [](const std::vector<const PhaseResult*>& phases,
                        const auto& value) {
    std::vector<double> v;
    for (const PhaseResult* p : phases) v.push_back(value(*p));
    return Median(v);
  };
  auto pct = [](const std::vector<double>& samples, double p) {
    return PercentileOf(Sorted(samples), p);
  };
  int64_t min_samples = std::numeric_limits<int64_t>::max();
  for (const PhaseResult* p : lows) {
    min_samples = std::min<int64_t>(min_samples, static_cast<int64_t>(p->latency_ms.size()));
    checks.Expect(AllFinite(p->latency_ms),
                  "a request of a low sub-phase failed or was never sent");
  }
  checks.Expect(HighestReportablePercentile(min_samples) >= 99.0,
                "a low sub-phase has too few samples for p99");
  auto p50 = [&](const PhaseResult& p) { return pct(p.latency_ms, 50); };
  auto p90 = [&](const PhaseResult& p) { return pct(p.latency_ms, 90); };
  auto p99 = [&](const PhaseResult& p) { return pct(p.latency_ms, 99); };
  std::printf("low p50/p90/p99 ms by sub-phase:");
  for (const PhaseResult* p : lows) {
    std::printf(" %.2f/%.2f/%.2f", p50(*p), p90(*p), p99(*p));
  }
  std::printf("\n");
  // The end-to-end read latency is the p50 of the best low sub-phase: host
  // interference only ever adds latency, so this is the best-of-N rule of
  // the compute rounds and of peak_qps.
  double read_p50_low = std::numeric_limits<double>::infinity();
  for (const PhaseResult* p : lows) read_p50_low = std::min(read_p50_low, p50(*p));
  const double read_p90_low = median_over(lows, p90);
  // The read tails are per-layer diagnostics: on a shared host they are
  // set by hypervisor preemption of the serving threads (see README.md).
  auto pooled = [&](const std::vector<const PhaseResult*>& phases, double p) {
    std::vector<double> v;
    for (const PhaseResult* ph : phases) {
      v.insert(v.end(), ph->latency_ms.begin(), ph->latency_ms.end());
    }
    return pct(v, p);
  };
  // Overload throughput: completions in windows that tile the last 80% of
  // each overload sub-phase (the first 20% fills the pipeline), per second
  // of vCPU time the host gave the process. The idle pollers keep every
  // CPU busy, so that is the wall-clock rate on a host that takes no time
  // from the vCPUs. The run reports the best window, since host
  // interference only ever lowers it. Both rates are per-layer metrics:
  // across ten-run sets they still moved with the host (see README.md).
  const int cpus = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // A CPU clock that gains `cpus` seconds per second gives the wall rate.
  const CpuSamples wall_clock = {{0.0, 0.0}, {1e9, 1e9 * cpus}};
  double peak_qps = 0.0, peak_qps_wall = 0.0;
  for (const PhaseResult* p : overloads) {
    peak_qps = std::max(peak_qps, BestWindowRate(p->done_at_s, 0.2 * p->seconds,
                                                 p->seconds, kPeakWindowSeconds,
                                                 p->cpu_at_s, cpus));
    peak_qps_wall = std::max(
        peak_qps_wall, BestWindowRate(p->done_at_s, 0.2 * p->seconds, p->seconds,
                                      kPeakWindowSeconds, wall_clock, cpus));
  }
  // Writes issued during overload wait behind a saturated engine; the
  // write latency takes those issued at the fixed read rates, or after
  // the phases on a workload whose phases write nothing.
  std::vector<double> writes;
  for (const auto& [start_ns, ms] : writer.writes) {
    bool in_overload = false;
    for (const PhaseResult* p : overloads) {
      in_overload = in_overload || (start_ns >= p->start_ns && start_ns < p->end_ns);
    }
    if (!in_overload) writes.push_back(ms);
  }
  checks.Expect(HighestReportablePercentile(static_cast<int64_t>(writes.size())) >= 90.0,
                "too few writes for p90");
  std::vector<double> late;
  for (const PhaseResult* p : lows) {
    late.insert(late.end(), p->late_ms.begin(), p->late_ms.end());
  }
  std::printf("%d cycles; sub-phase samples >= %lld; %zu of %zu writes outside "
              "overload; run %.1f s\n",
              cycles, static_cast<long long>(min_samples), writes.size(),
              writer.writes.size(), SecondsSince(run_start));
  for (const RoundTimes& t : rounds) {
    std::printf("round: setup %.3f s; wall/CPU s: train %.3f/%.3f encode "
                "%.3f/%.3f dedup %.3f/%.3f\n",
                t.setup_s, t.train_s, t.train_cpu_s, t.encode_s,
                t.encode_cpu_s, t.dedup_s, t.dedup_cpu_s);
  }
  std::printf("read p50/p90 ms: low %.3f/%.3f; peak %.0f/s (wall %.0f/s); "
              "mAP@1000 %.4f; epochs %d; failed checks %lld\n",
              read_p50_low, read_p90_low, peak_qps, peak_qps_wall,
              m.map_at_1000, m.epochs,
              static_cast<long long>(checks.failures));

  Report report;
  if (!args.trace) {
    report.Add("setup_s", m.setup_s, "s");
    report.Add("train_cpu_s", m.train_cpu_s, "s");
    report.Add("encode_cpu_s", m.encode_cpu_s, "s");
    report.Add("dedup_cpu_s", m.dedup_cpu_s, "s");
    report.Add("map_at_1000", m.map_at_1000, "1");
    report.Add("read_p50_ms.low", read_p50_low, "ms");
  } else {
    // Registry values summed over the recorded sub-phases; a component the
    // program no longer has reads as absent (0) instead of breaking.
    auto sum_registry = [&](const char* name) {
      double total = 0.0;
      for (const PhaseResult& p : m.phases) {
        double v = 0.0;
        if (RegistryValue(p.registry_json, name, &v)) total += v;
      }
      return total;
    };
    const double hits = sum_registry("cache.hits");
    const double misses = sum_registry("cache.misses");
    const double by_size = sum_registry("pipeline.flushes_by_size");
    const double by_timeout = sum_registry("pipeline.flushes_by_timeout");
    // Admission backpressure and queueing show at overload.
    std::vector<double> submit;
    for (const PhaseResult* p : overloads) {
      submit.insert(submit.end(), p->submit_ms.begin(), p->submit_ms.end());
    }
    report.Add("data.synth_s", m.setup_s, "s");
    report.Add("io.hydrate_s", m.hydrate_s, "s");
    report.Add("vlp.score_s", m.vlp_score_s, "s");
    report.Add("core.denoise_s", m.denoise_s, "s");
    report.Add("core.similarity_s", m.similarity_s, "s");
    report.Add("core.train_s", m.train_s, "s");
    report.Add("bench.encode_s", m.encode_s, "s");
    report.Add("bench.dedup_s", m.dedup_s, "s");
    report.Add("serve.peak_qps", peak_qps, "1/s");
    report.Add("serve.peak_qps_wall", peak_qps_wall, "1/s");
    report.Add("core.train_loop_s", m.train_s - m.build_similarity_s, "s");
    report.Add("core.epochs", m.epochs, "count");
    report.Add("nn.step_ms", m.nn_step_ms, "ms");
    report.Add("core.loss_ms", m.loss_ms, "ms");
    report.Add("core.encode_rows_per_s",
               static_cast<double>(m.encoded_rows) / m.encode_only_s, "rows/s");
    report.Add("index.pack_s", m.pack_s, "s");
    report.Add("index.join.topk_s", m.topk_join_s, "s");
    report.Add("index.join.radius_s", m.radius_join_s, "s");
    report.Add("index.join.pruned_share", m.join_pruned_share, "1");
    report.Add("index.join.tiles", m.join_tiles, "count");
    report.Add("index.scan_us_per_query", m.scan_us_per_query, "us");
    report.Add("serve.read_p90_ms.low", read_p90_low, "ms");
    report.Add("serve.read_p99_ms.low", pooled(lows, 99), "ms");
    report.Add("serve.submit_ms.p99", pct(submit, 99), "ms");
    report.Add("serve.queue_wait_ms.p99",
               median_over(overloads, [](const PhaseResult& p) {
                 return p.queue_wait_p99_ms;
               }),
               "ms");
    report.Add("serve.batch_size.mean", mean_batch, "count");
    report.Add("serve.flush_timeout_share",
               by_size + by_timeout > 0 ? by_timeout / (by_size + by_timeout)
                                        : 0.0,
               "1");
    report.Add("serve.engine_busy_share",
               overload_wall > 0 ? overload_busy / overload_wall : 0.0, "1");
    report.Add("serve.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "1");
    report.Add("serve.cache_evictions", sum_registry("cache.evictions"), "count");
    report.Add("serve.epoch_bumps",
               static_cast<double>(m.epoch_after - m.epoch_before), "count");
    report.Add("serve.write_p90_ms", pct(writes, 90), "ms");
    report.Add("serve.append_ms.p90", pct(m.append_ms, 90), "ms");
    report.Add("serve.remove_ms.p90", pct(m.remove_ms, 90), "ms");
    report.Add("serve.compactions", sum_registry("compact.compactions"), "count");
    report.Add("serve.compaction_ms", sum_registry("compact.total_ms"), "ms");
    report.Add("loadgen.late_p99_ms", pct(late, 99), "ms");
    const std::vector<Span> all = spans.spans();
    const std::map<std::string, double> self = LayerSelfSeconds(all);
    for (const char* layer :
         {"data", "vlp", "core", "nn", "eval", "io", "index", "serve"}) {
      const auto it = self.find(layer);
      report.Add(std::string("layer.") + layer + ".self_s",
                 it == self.end() ? 0.0 : it->second, "s");
    }
    // Tracing overhead: the calibrated cost of recording one span times
    // the spans this run recorded.
    SpanRecorder calib(true);
    const int64_t t0 = NowNs();
    for (int i = 0; i < 20000; ++i) calib.Record("calib.span", i, i + 1, 1, 1);
    const double per_span_ms = SecondsSince(t0) * 1e3 / 20000.0;
    report.Add("trace.spans", static_cast<double>(all.size()), "count");
    report.Add("trace.overhead_ms",
               per_span_ms * static_cast<double>(all.size()), "ms");
    const std::string trace_path = args.out_dir + "/" + w.name + "-seed" +
                                   std::to_string(args.seed) + ".trace.json";
    if (WriteChromeTrace(all, trace_path)) {
      std::printf("trace: %zu spans -> %s\n", all.size(), trace_path.c_str());
    }
  }
  const bool correct = checks.failures == 0 && report.AllFinite();
  std::printf("%s\n",
              report.ResultLine(correct, std::max<int64_t>(m.attempted, 1), m.failed)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace uhscm_bench

int main(int argc, char** argv) {
  uhscm_bench::Args args;
  if (!uhscm_bench::ParseArgs(argc, argv, &args)) return 2;
  return uhscm_bench::Run(args);
}
