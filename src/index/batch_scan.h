#ifndef UHSCM_INDEX_BATCH_SCAN_H_
#define UHSCM_INDEX_BATCH_SCAN_H_

#include <cstdint>
#include <vector>

#include "index/hamming_kernels.h"
#include "index/linear_scan.h"
#include "index/packed_codes.h"
#include "index/tombstone_set.h"
#include "obs/kernel_counters.h"

namespace uhscm::index {

struct BatchScanOptions {
  /// Codes per cache block; 0 picks a size that keeps one block of packed
  /// codes (~64 KiB) resident in L1/L2 while every query in the batch is
  /// scored against it.
  int code_block = 0;
  /// Kernel tier override for benches and the forced-tier CI runs; the
  /// default uses the process-wide dispatch decision (ActiveKernelTier).
  /// Unavailable tiers fall back to the best available tier below them.
  bool force_tier = false;
  KernelTier tier = KernelTier::kScalar;
  /// Use the fused distance+block-min kernel (BatchDistanceMinFn): the
  /// sub-chunk minimum that drives the skip decision is computed in
  /// registers while the distances are written, instead of by a second
  /// pass over the distance buffer (ChunkMin). Results are byte-identical
  /// either way (the kernels report the same distances); `false` keeps
  /// the unfused two-pass path, at the same sub-chunk grain, for A/B
  /// benches.
  bool fused_min = true;
  /// Deletion bitmap over `db` rows (null = all rows live). Tombstoned
  /// rows are still scored by the kernel (the block stays contiguous) but
  /// can never enter a heap, so results match a scan over the survivors.
  const TombstoneSet* tombstones = nullptr;
};

/// Codes per cache block when BatchScanOptions::code_block == 0: sized so
/// one block of packed codes (~64 KiB) stays L1/L2-resident while every
/// query of the batch is scored against it.
int PickCodeBlockSize(int words_per_code, int requested);

/// Codes per kernel call of SubChunkScan: one sub-chunk is scored, its
/// minimum compared against the caller's live bound, and the whole
/// sub-chunk skipped when it cannot hold a qualifying code.
inline constexpr int kDistChunk = 128;

/// Minimum of dist[lo..hi) — a straight-line reduction the compiler
/// auto-vectorizes; the buffer is L1-resident because the kernel just
/// wrote it. Precondition: lo < hi.
inline int32_t ChunkMin(const int32_t* dist, int lo, int hi) {
  int32_t m = dist[lo];
  for (int i = lo + 1; i < hi; ++i) m = m < dist[i] ? m : dist[i];
  return m;
}

/// Live (query, candidate) pairs a scan covered: each was either pruned
/// with its sub-chunk at the sub-chunk minimum, or scored — its
/// sub-chunk reached the per-code walk. pruned + scored is every live
/// pair scanned.
struct ScanPairCounts {
  int64_t pruned = 0;
  int64_t scored = 0;
};

/// \brief One query against a contiguous run of codes, one kDistChunk
/// sub-chunk per kernel call — the inner loop of BatchTopK and of the
/// self-join's RadiusJoin.
///
/// Before each sub-chunk, `bound()` yields the caller's current live
/// threshold (kNoThreshold accepts every code). It is the kernel's
/// early-abandon threshold, and a sub-chunk whose minimum is >= it is
/// skipped. Otherwise a 16-lane `d < bound` mask selects the lanes, and
/// `visit(id, d)` runs for each live one in ascending id with its exact
/// distance. A caller whose bound shrinks while it visits (a top-k heap)
/// re-checks it inside `visit`. Tombstoned codes are scored (the run
/// stays contiguous) but never visited.
class SubChunkScan {
 public:
  explicit SubChunkScan(const BatchScanOptions& options);

  template <typename Bound, typename Visit>
  void Run(const PackedCodes& db, const uint64_t* query, int lo, int hi,
           Bound bound, Visit visit);

  /// scan.rows_scanned / blocks_skipped (skipped sub-chunks) /
  /// early_abandon_calls; the owner decides whether to flush them.
  obs::KernelCounters counters;
  ScanPairCounts pairs;

 private:
  BatchDistanceFn kernel_;
  BatchDistanceMinFn fused_kernel_;
  bool fused_;
  const TombstoneSet* dead_;
  /// Lanes past a short sub-chunk's end are read by the 16-lane mask
  /// build and masked off, so the buffer is initialized once.
  int32_t dist_[kDistChunk] = {};
};

template <typename Bound, typename Visit>
void SubChunkScan::Run(const PackedCodes& db, const uint64_t* query, int lo,
                       int hi, Bound bound, Visit visit) {
  static_assert(kDistChunk % 16 == 0, "the lane mask covers 16 codes");
  const int words = db.words_per_code();
  for (int c0 = lo; c0 < hi; c0 += kDistChunk) {
    const int m = hi - c0 < kDistChunk ? hi - c0 : kDistChunk;
    const int live = dead_ == nullptr ? m : m - dead_->CountDead(c0, c0 + m);
    const int32_t threshold = bound();
    int32_t best;
    if (fused_) {
      best = fused_kernel_(query, db.code(c0), m, words, threshold, dist_);
    } else {
      kernel_(query, db.code(c0), m, words, threshold, dist_);
      best = ChunkMin(dist_, 0, m);
    }
    counters.rows_scanned += m;
    if (threshold != kNoThreshold) counters.early_abandon_calls += 1;
    // Every output below the threshold is exact, so a minimum at or
    // above it proves no code of the sub-chunk qualifies.
    if (best >= threshold) {
      counters.blocks_skipped += 1;
      pairs.pruned += live;
      continue;
    }
    pairs.scored += live;
    for (int g = 0; g < m; g += 16) {
      uint32_t mask = 0;
      for (int l = 0; l < 16; ++l) {
        mask |= static_cast<uint32_t>(dist_[g + l] < threshold) << l;
      }
      if (m - g < 16) mask &= (1u << (m - g)) - 1;
      while (mask != 0) {
        const int l = __builtin_ctz(mask);
        mask &= mask - 1;
        const int id = c0 + g + l;
        if (dead_ != nullptr && dead_->Test(id)) continue;
        visit(id, dist_[g + l]);
      }
    }
  }
}

/// \brief Query-blocked x code-blocked exact top-k over packed codes.
///
/// Scores all `num_queries` queries against one cache-resident block of
/// codes before advancing to the next block, so each block of the corpus
/// is read from memory once per *batch* instead of once per *query* —
/// the Q-fold traffic amortization the per-query scan cannot get. Codes
/// are visited in ascending id order per query and top-k selection uses
/// the same bounded max-heap displacement rule as LinearScanIndex::TopK
/// (strict distance improvement only), so results — ids, distances, and
/// tie-break order — are byte-identical to the per-query scan. Inside a
/// block each query runs a SubChunkScan against its live heap front:
/// once the heap is full, a sub-chunk whose minimum is >= the front is
/// skipped, and the front is the kernel's early-abandon threshold (see
/// hamming_kernels.h). `pairs`, when given, receives the live
/// (query, candidate) pairs pruned and scored.
std::vector<std::vector<Neighbor>> BatchTopK(
    const PackedCodes& db, const uint64_t* const* queries, int num_queries,
    int k, const BatchScanOptions& options = {},
    ScanPairCounts* pairs = nullptr);

/// Convenience overload for a PackedCodes batch of queries.
std::vector<std::vector<Neighbor>> BatchTopK(
    const PackedCodes& db, const PackedCodes& queries, int k,
    const BatchScanOptions& options = {}, ScanPairCounts* pairs = nullptr);

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_BATCH_SCAN_H_
