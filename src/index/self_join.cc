#include "index/self_join.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "index/batch_scan.h"
#include "obs/kernel_counters.h"
#include "obs/metrics.h"

namespace uhscm::index {
namespace {

/// Records one stage duration into the registry's stage.* histograms
/// (the same namespace the serving tracer fills), so the bench's
/// stage_breakdown JSON works for joins too. No-op when the obs layer is
/// compiled out or runtime-disabled.
class StageTimer {
 public:
  explicit StageTimer(const char* name) : name_(name) {}
  ~StageTimer() {
    if constexpr (!obs::kObsCompiledIn) return;
    if (!obs::RuntimeEnabled()) return;
    const int64_t ns =
        static_cast<int64_t>(watch_.ElapsedSeconds() * 1e9);
    obs::MetricsRegistry::Global().GetHistogram(name_)->Record(ns);
  }

 private:
  const char* name_;
  Stopwatch watch_;
};

/// Rows per join task: enough tasks for ParallelFor's dynamic chunks to
/// balance the pool (and the radius join's triangular rows), few enough
/// that each task's BatchTopK amortizes its code-block reads over many
/// queries.
int RowBlock(int n, int threads) {
  return std::max(1, (n + threads * 8 - 1) / (threads * 8));
}

/// Adds the per-task pair counts and the wall time to `stats`, and the
/// counts to the metrics registry (join.tiles counts row-block tasks).
void FinishStats(const std::vector<ScanPairCounts>& per_task,
                 const Stopwatch& watch, SelfJoinStats* stats) {
  stats->tiles = static_cast<int64_t>(per_task.size());
  for (const ScanPairCounts& task : per_task) {
    stats->pairs_pruned += task.pruned;
    stats->pairs_scored += task.scored;
  }
  obs::KernelCounters counters;
  counters.join_tiles = stats->tiles;
  counters.join_pairs_pruned = stats->pairs_pruned;
  counters.join_pairs_scored = stats->pairs_scored;
  counters.Flush();
  stats->seconds = watch.ElapsedSeconds();
}

BatchScanOptions ScanOptions(const SelfJoinOptions& options,
                             const TombstoneSet* dead) {
  BatchScanOptions scan;
  scan.code_block = options.tile;
  scan.force_tier = options.force_tier;
  scan.tier = options.tier;
  scan.fused_min = options.fused_min;
  scan.tombstones = dead;
  return scan;
}

}  // namespace

std::vector<std::vector<Neighbor>> TopKJoin(const PackedCodes& codes, int k,
                                            const SelfJoinOptions& options,
                                            SelfJoinStats* stats) {
  Stopwatch watch;
  const int n = codes.size();
  const TombstoneSet* dead = options.tombstones;
  const int live = n - (dead != nullptr ? dead->dead_count() : 0);
  SelfJoinStats local;
  // Every live query scans every live row, itself included.
  local.pairs_total = static_cast<int64_t>(live) * live;
  std::vector<std::vector<Neighbor>> results(static_cast<size_t>(n));
  // Self excluded, so a live row has at most live-1 neighbors.
  k = std::min(k, live - 1);
  std::vector<ScanPairCounts> per_task;
  if (k > 0) {
    const BatchScanOptions scan = ScanOptions(options, dead);
    ThreadPool pool(options.threads);
    const int rows = RowBlock(n, pool.num_threads());
    per_task.resize(static_cast<size_t>((n + rows - 1) / rows));
    StageTimer timer("stage.join_scan_ns");
    pool.ParallelFor(static_cast<int>(per_task.size()), [&](int task) {
      std::vector<int> ids;
      std::vector<const uint64_t*> queries;
      for (int i = task * rows; i < std::min(n, (task + 1) * rows); ++i) {
        if (dead != nullptr && dead->Test(i)) continue;
        ids.push_back(i);
        queries.push_back(codes.code(i));
      }
      // top-k(S \ {i}) is a subset of top-(k+1)(S) under the (distance,
      // id) order, so dropping row i from its own list (or, when k+1
      // rows tie ahead of it, the surplus last entry) leaves exactly
      // row i's k nearest other rows.
      std::vector<std::vector<Neighbor>> lists =
          BatchTopK(codes, queries.data(), static_cast<int>(queries.size()),
                    k + 1, scan, &per_task[static_cast<size_t>(task)]);
      for (size_t q = 0; q < ids.size(); ++q) {
        std::vector<Neighbor>& list = lists[q];
        const int i = ids[q];
        const auto self = std::find_if(
            list.begin(), list.end(),
            [i](const Neighbor& nb) { return nb.id == i; });
        if (self != list.end()) list.erase(self);
        list.resize(static_cast<size_t>(k));
        results[static_cast<size_t>(i)] = std::move(list);
      }
    });
  }
  FinishStats(per_task, watch, &local);
  if (stats != nullptr) *stats = local;
  return results;
}

std::vector<JoinPair> RadiusJoin(const PackedCodes& codes, int radius,
                                 const SelfJoinOptions& options,
                                 SelfJoinStats* stats) {
  Stopwatch watch;
  const int n = codes.size();
  const TombstoneSet* dead = options.tombstones;
  const int live = n - (dead != nullptr ? dead->dead_count() : 0);
  SelfJoinStats local;
  // Row i is paired only with the rows after it.
  local.pairs_total = static_cast<int64_t>(live) * (live - 1) / 2;
  std::vector<JoinPair> result;
  std::vector<ScanPairCounts> per_task;
  if (radius >= 0 && live >= 2) {
    const BatchScanOptions scan_options = ScanOptions(options, dead);
    // Distances below the threshold are exact, and d < radius + 1 is
    // d <= radius (saturating: a radius past every distance keeps all).
    const int32_t threshold =
        radius >= kNoThreshold - 1 ? kNoThreshold : radius + 1;
    ThreadPool pool(options.threads);
    const int rows = RowBlock(n, pool.num_threads());
    per_task.resize(static_cast<size_t>((n + rows - 1) / rows));
    std::vector<std::vector<JoinPair>> per_task_pairs(per_task.size());
    {
      StageTimer timer("stage.join_scan_ns");
      pool.ParallelFor(static_cast<int>(per_task.size()), [&](int task) {
        SubChunkScan scan(scan_options);
        std::vector<JoinPair>& out = per_task_pairs[static_cast<size_t>(task)];
        for (int i = task * rows; i < std::min(n, (task + 1) * rows); ++i) {
          if (dead != nullptr && dead->Test(i)) continue;
          scan.Run(codes, codes.code(i), i + 1, n,
                   [threshold] { return threshold; },
                   [&out, i](int j, int32_t d) { out.push_back({i, j, d}); });
        }
        per_task[static_cast<size_t>(task)] = scan.pairs;
      });
    }
    StageTimer timer("stage.join_merge_ns");
    // Tasks cover ascending row ranges and emit (a, b) in order, so the
    // concatenation is already sorted.
    size_t total = 0;
    for (const auto& chunk : per_task_pairs) total += chunk.size();
    result.reserve(total);
    for (const auto& chunk : per_task_pairs) {
      result.insert(result.end(), chunk.begin(), chunk.end());
    }
  }
  FinishStats(per_task, watch, &local);
  if (stats != nullptr) *stats = local;
  return result;
}

// ------------------------------------------------------------ reducers

DedupGroupsResult ReducePairsToGroups(const std::vector<JoinPair>& pairs,
                                      DedupLink link) {
  DedupGroupsResult result;
  int rows = 0;
  for (const JoinPair& pair : pairs) {
    rows = std::max(rows, std::max(pair.a, pair.b) + 1);
  }
  // Best within-radius match per row (id -1 = none), under the canonical
  // (distance, id) order. Whenever a row's global nearest neighbor is
  // within the radius, this equals it (the global best is the minimum).
  std::vector<Neighbor> best(static_cast<size_t>(rows), Neighbor{-1, 0});
  auto offer = [&best](int row, Neighbor nb) {
    Neighbor& slot = best[static_cast<size_t>(row)];
    if (slot.id < 0 || NeighborLess(nb, slot)) slot = nb;
  };
  for (const JoinPair& pair : pairs) {
    offer(pair.a, {pair.b, pair.distance});
    offer(pair.b, {pair.a, pair.distance});
  }
  for (const JoinPair& pair : pairs) {
    if (best[static_cast<size_t>(pair.a)].id == pair.b &&
        best[static_cast<size_t>(pair.b)].id == pair.a) {
      result.reciprocal_pairs.push_back(pair);  // pairs is (a, b)-sorted
    }
  }

  // Union-find with path halving; the smaller root wins every union, so
  // a component's root is its smallest member.
  std::vector<int> parent(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) parent[static_cast<size_t>(i)] = i;
  auto find = [&parent](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      int& up = parent[static_cast<size_t>(x)];
      up = parent[static_cast<size_t>(up)];
      x = up;
    }
    return x;
  };
  const std::vector<JoinPair>& edges =
      link == DedupLink::kRadius ? pairs : result.reciprocal_pairs;
  for (const JoinPair& pair : edges) {
    const int ra = find(pair.a), rb = find(pair.b);
    parent[static_cast<size_t>(std::max(ra, rb))] = std::min(ra, rb);
  }
  std::vector<int> size(static_cast<size_t>(rows), 0);
  for (int i = 0; i < rows; ++i) ++size[static_cast<size_t>(find(i))];
  // Ascending rows meet each root first (it is the smallest member), so
  // groups come out sorted by first member with members ascending.
  std::vector<int> group_of(static_cast<size_t>(rows), -1);
  for (int i = 0; i < rows; ++i) {
    const int root = find(i);
    if (size[static_cast<size_t>(root)] < 2) continue;
    int& g = group_of[static_cast<size_t>(root)];
    if (g < 0) {
      g = static_cast<int>(result.groups.size());
      result.groups.emplace_back();
    }
    result.groups[static_cast<size_t>(g)].push_back(i);
    ++result.rows_clustered;
  }
  return result;
}

DedupGroupsResult DedupGroups(const PackedCodes& codes,
                              const DedupOptions& dedup,
                              const SelfJoinOptions& options) {
  SelfJoinStats stats;
  const std::vector<JoinPair> pairs =
      RadiusJoin(codes, dedup.radius, options, &stats);
  StageTimer timer("stage.join_reduce_ns");
  DedupGroupsResult result = ReducePairsToGroups(pairs, dedup.link);
  result.join = stats;
  return result;
}

// ---------------------------------------------------------- references

std::vector<std::vector<Neighbor>> ReferenceTopKJoin(
    const PackedCodes& codes, int k, const TombstoneSet* tombstones) {
  const int n = codes.size();
  const int words = codes.words_per_code();
  const TombstoneSet* dead =
      tombstones != nullptr && tombstones->any() ? tombstones : nullptr;
  auto live = [dead](int i) { return dead == nullptr || !dead->Test(i); };
  int live_count = 0;
  for (int i = 0; i < n; ++i) live_count += live(i) ? 1 : 0;
  std::vector<std::vector<Neighbor>> results(static_cast<size_t>(n));
  k = std::min(k, live_count - 1);
  if (k <= 0) return results;
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(a, b);
  };
  // Bounded max-heap under the full (distance, id) order: the mirrored
  // offer to row j arrives out of id order, so an equal-distance smaller
  // id must displace the worst kept entry.
  auto offer = [k, &cmp](std::vector<Neighbor>* heap, Neighbor nb) {
    if (static_cast<int>(heap->size()) < k) {
      heap->push_back(nb);
      std::push_heap(heap->begin(), heap->end(), cmp);
    } else if (NeighborLess(nb, heap->front())) {
      std::pop_heap(heap->begin(), heap->end(), cmp);
      heap->back() = nb;
      std::push_heap(heap->begin(), heap->end(), cmp);
    }
  };
  for (int i = 0; i < n; ++i) {
    if (!live(i)) continue;
    for (int j = i + 1; j < n; ++j) {
      if (!live(j)) continue;
      const int d = HammingDistance(codes.code(i), codes.code(j), words);
      offer(&results[static_cast<size_t>(i)], {j, d});
      offer(&results[static_cast<size_t>(j)], {i, d});
    }
  }
  for (auto& heap : results) std::sort_heap(heap.begin(), heap.end(), cmp);
  return results;
}

std::vector<JoinPair> ReferenceRadiusJoin(const PackedCodes& codes, int radius,
                                          const TombstoneSet* tombstones) {
  const int n = codes.size();
  const int words = codes.words_per_code();
  const TombstoneSet* dead =
      tombstones != nullptr && tombstones->any() ? tombstones : nullptr;
  auto live = [dead](int i) { return dead == nullptr || !dead->Test(i); };
  std::vector<JoinPair> result;
  if (radius < 0) return result;
  for (int i = 0; i < n; ++i) {
    if (!live(i)) continue;
    for (int j = i + 1; j < n; ++j) {
      if (!live(j)) continue;
      const int d = HammingDistance(codes.code(i), codes.code(j), words);
      if (d <= radius) result.push_back({i, j, d});
    }
  }
  return result;
}

}  // namespace uhscm::index
