#ifndef UHSCM_INDEX_SELF_JOIN_H_
#define UHSCM_INDEX_SELF_JOIN_H_

#include <cstdint>
#include <vector>

#include "index/hamming_kernels.h"
#include "index/neighbor.h"
#include "index/packed_codes.h"
#include "index/tombstone_set.h"

namespace uhscm::index {

/// \brief Corpus x corpus self-join over packed codes.
///
/// The offline-analytics counterpart of the serving scan: every row is
/// simultaneously query and corpus. Instead of the branchy O(n^2)
/// per-pair loop (the mostsimilar shape), the rows are cut into row
/// blocks that run as independent ThreadPool tasks, and each row scans
/// the corpus with the serving scan's SubChunkScan (batch_scan.h): one
/// fused kernel call per sub-chunk, skipped whole when its minimum cannot
/// beat the row's live bound. Every row owns its result, so tasks share
/// no mutable state, and results are byte-identical to the naive
/// per-pair reference (ReferenceTopKJoin / ReferenceRadiusJoin below),
/// including tie handling and tombstoned rows.
struct SelfJoinOptions {
  /// Codes per cache block of TopKJoin's scan
  /// (BatchScanOptions::code_block); 0 picks a size that keeps one block
  /// of packed codes (~64 KiB) cache-resident (PickCodeBlockSize).
  /// RadiusJoin scans each row's tail in one pass and ignores it.
  int tile = 0;
  /// Worker threads for the row-block tasks (0 = hardware concurrency).
  int threads = 0;
  /// Kernel tier override for benches and forced-tier CI runs; the
  /// default uses the process-wide dispatch decision. Unavailable tiers
  /// grade down like BatchScanOptions::force_tier.
  bool force_tier = false;
  KernelTier tier = KernelTier::kScalar;
  /// Use the fused distance+min kernel for the sub-chunk skip decision
  /// (BatchScanOptions::fused_min); `false` keeps the unfused two-pass
  /// walk for A/B benches. Results are byte-identical either way.
  bool fused_min = true;
  /// Deletion bitmap over rows (null = all live). Tombstoned rows are
  /// excluded from the join entirely: they are never queries (their
  /// result list stays empty), never candidates, and never pair
  /// endpoints.
  const TombstoneSet* tombstones = nullptr;
};

/// Work accounting for one join call (also added to the metrics
/// registry as join.tiles / join.pairs_pruned / join.pairs_scored when
/// the observability layer is compiled in). Pairs are ordered
/// (query, candidate) live pairs the join scans: live x live for
/// TopKJoin (a row's scan covers itself), live x (live - 1) / 2 for
/// RadiusJoin (row i scans only rows after it).
struct SelfJoinStats {
  int64_t tiles = 0;         ///< row-block tasks executed
  int64_t pairs_total = 0;   ///< live (query, candidate) pairs scanned
  int64_t pairs_pruned = 0;  ///< pairs disposed by sub-chunk min-skips
  int64_t pairs_scored = 0;  ///< pairs whose sub-chunk was walked
  double seconds = 0.0;      ///< wall time of the join
};

/// \brief k nearest neighbors for every row (self-matches excluded).
///
/// result[i] holds the k live rows j != i with the smallest
/// (distance, id) keys, sorted by NeighborLess — exactly what
/// LinearScanIndex::TopK would return for row i's code against a corpus
/// with row i removed. Each row block runs BatchTopK(k + 1) over the
/// whole corpus; since top-k(S \ {i}) is a subset of top-(k+1)(S), row i
/// is dropped from its own list (or, when k + 1 rows tie ahead of it,
/// the list is cut to k). k is clamped to live_rows - 1; tombstoned rows
/// get empty lists.
std::vector<std::vector<Neighbor>> TopKJoin(const PackedCodes& codes, int k,
                                            const SelfJoinOptions& options = {},
                                            SelfJoinStats* stats = nullptr);

/// One unordered pair surfaced by a threshold join: a < b always.
struct JoinPair {
  int a;
  int b;
  int distance;
};

inline bool operator==(const JoinPair& x, const JoinPair& y) {
  return x.a == y.a && x.b == y.b && x.distance == y.distance;
}

/// Canonical pair ordering: ascending (a, b).
inline bool JoinPairLess(const JoinPair& x, const JoinPair& y) {
  return x.a != y.a ? x.a < y.a : x.b < y.b;
}

/// \brief All unordered live pairs within Hamming radius (inclusive).
///
/// WithinRadius semantics lifted to the whole corpus: every {i, j} with
/// i < j, both live, and d(i, j) <= radius, sorted by (a, b). Row i
/// scans rows j > i at the radius + 1 threshold, skipping every
/// kDistChunk sub-chunk whose minimum exceeds the radius, so a sparse
/// join (small radius) runs at raw-kernel speed. Row blocks emit their
/// pairs in (a, b) order, so the output is their concatenation.
std::vector<JoinPair> RadiusJoin(const PackedCodes& codes, int radius,
                                 const SelfJoinOptions& options = {},
                                 SelfJoinStats* stats = nullptr);

/// How DedupGroups links rows into clusters.
enum class DedupLink {
  /// Union only reciprocal best matches: {i, j} is an edge iff each is
  /// the other's nearest neighbor (top-1 under (distance, id)) and
  /// d(i, j) <= radius — the mostsimilar "mutual match" rule. Clusters
  /// are disjoint pairs by construction.
  kReciprocalBest,
  /// Union every within-radius pair: clusters are the connected
  /// components of the radius graph (transitive near-duplicate closure —
  /// "the same photo re-exported five times" lands in one group).
  kRadius,
};

struct DedupOptions {
  /// Inclusive Hamming radius below which two rows count as duplicates.
  int radius = 0;
  DedupLink link = DedupLink::kRadius;
};

/// \brief Duplicate clusters from a threshold + best-match reduction.
struct DedupGroupsResult {
  /// Each group: member ids sorted ascending, size >= 2. Groups sorted
  /// by their first member (the canonical representative — the row a
  /// dedup pass would keep).
  std::vector<std::vector<int>> groups;
  /// Reciprocal best-match pairs within the radius (computed under both
  /// link modes; under kReciprocalBest these are exactly the union-find
  /// edges). Sorted by (a, b).
  std::vector<JoinPair> reciprocal_pairs;
  /// Sum of group sizes — rows that have at least one duplicate.
  int64_t rows_clustered = 0;
  SelfJoinStats join;
};

/// \brief Threshold + reciprocal-best-match union-find over the radius
/// join: duplicate clusters at corpus scale.
///
/// Runs RadiusJoin(radius), derives each row's best within-radius match
/// (which equals its global nearest neighbor whenever that neighbor
/// qualifies), and unions edges per DedupOptions::link. The reducer is
/// pure code over the pair list, so byte-identity of the radius join
/// carries over to the groups.
DedupGroupsResult DedupGroups(const PackedCodes& codes,
                              const DedupOptions& dedup,
                              const SelfJoinOptions& options = {});

/// Pure reducer from a (a, b)-sorted within-radius pair list to dedup
/// groups — exposed so tests and the reference path share the engine's
/// exact semantics.
DedupGroupsResult ReducePairsToGroups(const std::vector<JoinPair>& pairs,
                                      DedupLink link);

/// \brief Naive per-pair references — the branchy O(n^2) loop the engine
/// replaces, kept as the semantic oracle and the bench baseline.
///
/// Each unordered live pair is scored once with the per-pair
/// HammingDistance call and offered to both rows' bounded heaps
/// ((distance, id) displacement). Output is byte-identical to the join
/// engine by construction of both.
std::vector<std::vector<Neighbor>> ReferenceTopKJoin(
    const PackedCodes& codes, int k, const TombstoneSet* tombstones = nullptr);
std::vector<JoinPair> ReferenceRadiusJoin(
    const PackedCodes& codes, int radius,
    const TombstoneSet* tombstones = nullptr);

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_SELF_JOIN_H_
