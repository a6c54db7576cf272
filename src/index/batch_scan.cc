#include "index/batch_scan.h"

#include <algorithm>

namespace uhscm::index {
namespace {

/// Block of packed codes targeted at ~64 KiB so it stays cache-resident
/// across all queries of the batch.
constexpr int kTargetBlockBytes = 64 * 1024;

}  // namespace

int PickCodeBlockSize(int words_per_code, int requested) {
  if (requested > 0) return requested;
  const int bytes_per_code = words_per_code * 8;
  return std::max(256, kTargetBlockBytes / bytes_per_code);
}

SubChunkScan::SubChunkScan(const BatchScanOptions& options)
    : kernel_(options.force_tier ? GetBatchDistanceFn(options.tier)
                                 : GetBatchDistanceFn()),
      fused_kernel_(options.force_tier ? GetBatchDistanceMinFn(options.tier)
                                       : GetBatchDistanceMinFn()),
      fused_(options.fused_min),
      dead_(options.tombstones != nullptr && options.tombstones->any()
                ? options.tombstones
                : nullptr) {}

std::vector<std::vector<Neighbor>> BatchTopK(const PackedCodes& db,
                                             const uint64_t* const* queries,
                                             int num_queries, int k,
                                             const BatchScanOptions& options,
                                             ScanPairCounts* pairs) {
  std::vector<std::vector<Neighbor>> results(
      static_cast<size_t>(std::max(0, num_queries)));
  const TombstoneSet* dead = options.tombstones;
  // Clamp k to the live row count so a heap can actually fill (the
  // skip threshold only arms on a full heap) and the result size
  // matches a scan over the survivors.
  k = std::min(k, db.size() - (dead != nullptr ? dead->dead_count() : 0));
  if (k <= 0 || num_queries <= 0) return results;

  const int n = db.size();
  const int block = PickCodeBlockSize(db.words_per_code(), options.code_block);
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(a, b);
  };
  for (auto& heap : results) heap.reserve(static_cast<size_t>(k));
  SubChunkScan scan(options);

  for (int begin = 0; begin < n; begin += block) {
    const int end = std::min(begin + block, n);
    for (int q = 0; q < num_queries; ++q) {
      std::vector<Neighbor>& heap = results[static_cast<size_t>(q)];
      // The live front, read before every sub-chunk: exact distances
      // while the heap fills, then the worst kept distance, which only
      // shrinks.
      auto front = [&heap, k] {
        return static_cast<int>(heap.size()) == k ? heap.front().distance
                                                  : kNoThreshold;
      };
      scan.Run(db, queries[q], begin, end, front, [&](int id, int32_t d) {
        if (static_cast<int>(heap.size()) < k) {
          heap.push_back({id, d});
          std::push_heap(heap.begin(), heap.end(), cmp);
        } else if (d < heap.front().distance) {
          // Re-checked per code: earlier lanes of this sub-chunk may have
          // shrunk the front. Strict < matches the per-query scan: ids
          // only ascend, so a distance tie never displaces the worst.
          std::pop_heap(heap.begin(), heap.end(), cmp);
          heap.back() = {id, d};
          std::push_heap(heap.begin(), heap.end(), cmp);
        }
      });
    }
  }

  scan.counters.Flush();
  if (pairs != nullptr) *pairs = scan.pairs;
  for (auto& heap : results) std::sort_heap(heap.begin(), heap.end(), cmp);
  return results;
}

std::vector<std::vector<Neighbor>> BatchTopK(const PackedCodes& db,
                                             const PackedCodes& queries,
                                             int k,
                                             const BatchScanOptions& options,
                                             ScanPairCounts* pairs) {
  std::vector<const uint64_t*> ptrs(static_cast<size_t>(queries.size()));
  for (int q = 0; q < queries.size(); ++q) ptrs[static_cast<size_t>(q)] = queries.code(q);
  return BatchTopK(db, ptrs.data(), queries.size(), k, options, pairs);
}

}  // namespace uhscm::index
