// Micro-performance benchmarks (google-benchmark) for the hot kernels
// behind the paper-table benches: packed Hamming scans, multi-index
// hashing lookups, GEMM, VLP scoring, and the UHSCM batch loss. These
// are the "is the substrate fast enough" counterpart to the paper-shape
// benches; run any binary with --benchmark_filter=... as usual.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hashing_network.h"
#include "core/losses.h"
#include "data/concept_vocab.h"
#include "data/synthetic.h"
#include "data/world.h"
#include "index/batch_scan.h"
#include "index/hamming_kernels.h"
#include "index/linear_scan.h"
#include "index/multi_index_hash.h"
#include "index/packed_codes.h"
#include "index/self_join.h"
#include "linalg/ops.h"
#include "perf_util.h"
#include "vlp/simulated_vlp.h"

namespace uhscm {
namespace {

using bench::RandomSignCodes;

void BM_HammingDistance(benchmark::State& state) {
  // Measures the unrolled popcount kernel itself: distance between two
  // packed rows at the paper's code widths (1..2 words) plus a wide
  // 1024-bit configuration where the 4-way unroll dominates.
  const int bits = static_cast<int>(state.range(0));
  Rng rng(11);
  index::PackedCodes codes =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(2, bits, &rng));
  const int words = codes.words_per_code();
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += static_cast<uint64_t>(
        index::HammingDistance(codes.code(0), codes.code(1), words));
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * words);
}
BENCHMARK(BM_HammingDistance)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

void BM_LinearScanTopK(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  Rng rng(1);
  index::LinearScanIndex scan(
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng)));
  index::PackedCodes query =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.TopK(query.code(0), 100));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinearScanTopK)
    ->Args({10000, 64})
    ->Args({10000, 128})
    ->Args({100000, 64});

void BM_BatchDistances(benchmark::State& state) {
  // The dispatched batch kernel against a contiguous corpus run — the
  // inner loop of the blocked scan, without top-k bookkeeping.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const bool scalar = state.range(2) != 0;
  Rng rng(21);
  index::PackedCodes corpus =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  index::PackedCodes query =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const index::BatchDistanceFn fn =
      scalar ? index::GetBatchDistanceFn(index::KernelTier::kScalar)
             : index::GetBatchDistanceFn();
  std::vector<int32_t> dist(static_cast<size_t>(n));
  for (auto _ : state) {
    fn(query.code(0), corpus.code(0), n, corpus.words_per_code(),
       index::kNoThreshold, dist.data());
    benchmark::DoNotOptimize(dist.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * int64_t{n} *
                          corpus.words_per_code() * 8);
  state.SetLabel(scalar ? "scalar"
                        : index::KernelTierName(index::ActiveKernelTier()));
}
BENCHMARK(BM_BatchDistances)
    ->Args({100000, 64, 1})
    ->Args({100000, 64, 0})
    ->Args({100000, 128, 1})
    ->Args({100000, 128, 0})
    ->Args({100000, 1024, 1})
    ->Args({100000, 1024, 0});

void BM_BatchDistancesMin(benchmark::State& state) {
  // Fused distance+block-min kernel vs the unfused pair (plain kernel
  // followed by a separate min pass over the distance buffer) — the A/B
  // behind BatchScanOptions::fused_min. Same dispatched tier both ways.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const bool fused = state.range(2) != 0;
  Rng rng(23);
  index::PackedCodes corpus =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  index::PackedCodes query =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const int words = corpus.words_per_code();
  const index::BatchDistanceMinFn fused_fn = index::GetBatchDistanceMinFn();
  const index::BatchDistanceFn plain_fn = index::GetBatchDistanceFn();
  std::vector<int32_t> dist(static_cast<size_t>(n));
  int32_t sink = 0;
  for (auto _ : state) {
    if (fused) {
      sink += fused_fn(query.code(0), corpus.code(0), n, words,
                       index::kNoThreshold, dist.data());
    } else {
      plain_fn(query.code(0), corpus.code(0), n, words, index::kNoThreshold,
               dist.data());
      int32_t best = dist[0];
      for (int i = 1; i < n; ++i) best = std::min(best, dist[i]);
      sink += best;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * int64_t{n} * words * 8);
  state.SetLabel(std::string(fused ? "fused/" : "unfused/") +
                 index::KernelTierName(index::ActiveKernelTier()));
}
BENCHMARK(BM_BatchDistancesMin)
    ->Args({100000, 64, 0})
    ->Args({100000, 64, 1})
    ->Args({100000, 128, 0})
    ->Args({100000, 128, 1})
    ->Args({100000, 1024, 0})
    ->Args({100000, 1024, 1});

void BM_BatchTopK(benchmark::State& state) {
  // The full batched serving scan: query-blocked x code-blocked with
  // early abandon, dispatched kernel.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const int queries = static_cast<int>(state.range(2));
  Rng rng(22);
  index::LinearScanIndex scan(
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng)));
  index::PackedCodes batch =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(queries, bits, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.TopKBatch(batch, 100));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * queries);
}
BENCHMARK(BM_BatchTopK)
    ->Args({100000, 64, 32})
    ->Args({100000, 128, 32})
    ->Args({10000, 128, 256});

void BM_TopKJoin(benchmark::State& state) {
  // The corpus self-join at the repo benchmark's dedup shape: every one
  // of 20k 64-bit rows gets its k=10 nearest other rows. Arg = worker
  // threads (0 = hardware concurrency), so real time is reported.
  const int threads = static_cast<int>(state.range(0));
  constexpr int kRows = 20000;
  Rng rng(23);
  const index::PackedCodes codes =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(kRows, 64, &rng));
  index::SelfJoinOptions options;
  options.threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::TopKJoin(codes, 10, options));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{kRows} * kRows);
}
BENCHMARK(BM_TopKJoin)->Arg(1)->Arg(0)->UseRealTime();

void BM_MihRadiusQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int radius = static_cast<int>(state.range(1));
  Rng rng(2);
  index::MultiIndexHashTable mih(
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, 64, &rng)), 0);
  index::PackedCodes query =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(1, 64, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mih.WithinRadius(query.code(0), radius));
  }
}
BENCHMARK(BM_MihRadiusQuery)
    ->Args({10000, 2})
    ->Args({10000, 6})
    ->Args({100000, 2});

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  linalg::Matrix a = linalg::Matrix::RandomNormal(n, n, &rng);
  linalg::Matrix b = linalg::Matrix::RandomNormal(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Arg(128)->Arg(256)->Arg(512);

void BM_PackedGemm(benchmark::State& state) {
  // Packed-panel GEMM micro-kernel vs the pre-packing cache-blocked loop
  // at trainer shapes (m = batch, k = feature dim, n = code width — the
  // projection products that dominate a training step).
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const bool packed = state.range(3) != 0;
  Rng rng(7);
  linalg::Matrix a = linalg::Matrix::RandomNormal(m, k, &rng);
  linalg::Matrix b = linalg::Matrix::RandomNormal(k, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed ? linalg::MatMul(a, b)
                                    : linalg::MatMulBlocked(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{m} * k * n);
  state.SetLabel(packed ? std::string("packed/") +
                              index::KernelTierName(linalg::PackedGemmTier())
                        : std::string("blocked"));
}
BENCHMARK(BM_PackedGemm)
    ->Args({128, 3072, 512, 0})
    ->Args({128, 3072, 512, 1})
    ->Args({256, 256, 256, 0})
    ->Args({256, 256, 256, 1})
    ->Args({512, 512, 512, 0})
    ->Args({512, 512, 512, 1})
    ->UseRealTime();

void BM_EncodeBinary(benchmark::State& state) {
  // The hashing network's inference pass at the repo benchmark's encoder
  // shape (256 inputs, 512/256 hidden, 64 bits) on one 8192-row chunk:
  // the fused EncodeBinary vs Sign(Forward()), the training path it
  // replaced. Both give the same bytes.
  const bool fused = state.range(0) != 0;
  constexpr int kRows = 8192;
  Rng rng(11);
  core::HashingNetwork network(256, core::HashingNetworkOptions{}, &rng);
  const linalg::Matrix x = linalg::Matrix::RandomNormal(kRows, 256, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fused ? network.EncodeBinary(x)
                                   : linalg::Sign(network.Forward(x)));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(fused ? std::string("fused/") +
                             index::KernelTierName(linalg::PackedGemmTier())
                       : std::string("forward+sign"));
}
BENCHMARK(BM_EncodeBinary)->Arg(0)->Arg(1)->UseRealTime();

void BM_VlpScoring(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  data::SemanticWorld world(4);
  data::SyntheticOptions options;
  options.sizes = {n, n / 2, n / 10};
  Rng rng(5);
  const data::Dataset dataset = data::MakeCifar10Like(&world, options, &rng);
  const data::ConceptVocab vocab = data::MakeNusVocab(&world);
  const vlp::SimulatedVlpModel vlp(&world);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vlp.ScoreImagesAgainstConcepts(
        dataset.pixels, vocab.ids, vlp::PromptTemplate::kAPhotoOfThe));
  }
  state.SetItemsProcessed(state.iterations() * n * vocab.size());
}
BENCHMARK(BM_VlpScoring)->Arg(200)->Arg(1000);

void BM_UhscmBatchLoss(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  Rng rng(6);
  linalg::Matrix z = linalg::Matrix::RandomNormal(t, bits, &rng);
  linalg::Matrix q(t, t);
  for (int i = 0; i < t; ++i) {
    q(i, i) = 1.0f;
    for (int j = i + 1; j < t; ++j) {
      q(i, j) = q(j, i) = static_cast<float>(rng.Uniform());
    }
  }
  core::UhscmLossOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::UhscmBatchLoss(z, q, options));
  }
  state.SetItemsProcessed(state.iterations() * t * t);
}
BENCHMARK(BM_UhscmBatchLoss)->Args({128, 64})->Args({128, 128});

}  // namespace
}  // namespace uhscm

// Custom main instead of BENCHMARK_MAIN(): unless the caller passed their
// own --benchmark_out, default to a machine-readable
// BENCH_micro_perf.json next to the console report so the perf
// trajectory is recorded on every run.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag only: a bare prefix test would also match
    // --benchmark_out_format and wrongly suppress the default.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_perf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
