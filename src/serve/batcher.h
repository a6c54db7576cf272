#ifndef UHSCM_SERVE_BATCHER_H_
#define UHSCM_SERVE_BATCHER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/annotated_sync.h"
#include "serve/request_queue.h"
#include "serve/router.h"
#include "serve/serve_stats.h"

namespace uhscm::serve {

struct BatcherOptions {
  /// B: flush as soon as this many requests are collected.
  int max_batch = 32;
  /// T: flush whatever has been collected this many microseconds after
  /// the batch opened (first request popped), even if fewer than B.
  /// B-or-T, whichever first — small under load (B wins, big batches for
  /// the SIMD kernels), bounded-latency when idle (T wins, a lone
  /// straggler waits at most T).
  int64_t timeout_us = 200;
  /// Admission-queue bound (backpressure). 0 = auto: 8 * max_batch,
  /// so queue wait stays a handful of flush intervals even at
  /// saturation.
  size_t queue_capacity = 0;
};

/// \brief The adaptive-batching stage of the async pipeline: one flush
/// thread that turns the admission queue's single-query requests into
/// engine-shaped batches and searches them on the process's engine.
///
///   clients --Submit--> RequestQueue --CollectBatch(B,T)--> Batcher
///       --group by k, pack--> QueryEngine::Search --> resolve futures
///
/// Submit is the whole client API: hand over one packed query, get a
/// future. The flush thread collects up to B requests (or T µs), packs
/// each same-k group into one PackedCodes batch, runs the engine's
/// Search on it (whose fan-out uses the engine's worker pool), and
/// resolves every member's promise. Results are byte-identical to
/// calling QueryEngine::Search yourself: same corpus, same epoch, same
/// (distance, id) lists.
///
/// **Backpressure.** While the flush thread is searching it collects
/// nothing, so under overload the bounded admission queue fills and
/// Submit blocks the client; memory stays bounded at any offered load.
///
/// **Failure semantics.** A request may carry an absolute deadline; at
/// flush time overdue requests resolve kDeadlineExceeded without
/// reaching the engine. Every future resolves exactly once.
///
/// Shutdown: Drain() (also run by the destructor) closes the queue so
/// new Submits are rejected with an Unavailable status, lets the flush
/// thread finish its in-hand batch (served with real results), and
/// completes every request still queued with a shutdown Status — every
/// future ever handed out resolves; nothing is dropped.
class Batcher {
 public:
  /// The router (and the engine behind it) must outlive the batcher.
  explicit Batcher(Router* router, const BatcherOptions& options = {});
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Admits one query (num_words must equal the corpus words-per-code;
  /// mismatches resolve immediately with InvalidArgument). Blocks while
  /// the admission queue is full — backpressure, not queue growth.
  /// `deadline` (absolute; time_point::max() = none) is enforced at
  /// flush time: an overdue request resolves kDeadlineExceeded instead
  /// of occupying the engine.
  std::future<SearchResponse> Submit(
      const uint64_t* words, int num_words, int k,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

  /// Convenience: submit query `q` of a packed block.
  std::future<SearchResponse> Submit(
      const index::PackedCodes& queries, int q, int k,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

  /// Rejects new work, flushes pending requests with a shutdown Status,
  /// and joins cleanly. Idempotent.
  void Drain();

  /// Pipeline counters + current queue depth, merged with the engine's
  /// counters (cache, updates, epoch).
  ServeStatsSnapshot stats() const;

  /// Zeroes the pipeline counters and the engine's stats.
  void ResetStats();

  size_t queue_depth() const { return queue_.depth(); }
  const BatcherOptions& options() const { return options_; }

 private:
  void FlushLoop();
  /// Expires overdue requests, then searches one packed batch per
  /// distinct k and resolves its members' promises.
  void FlushBatch(std::vector<PendingRequest> batch, bool by_timeout);

  QueryEngine* engine_;
  BatcherOptions options_;
  int words_per_code_;
  int bits_;
  RequestQueue queue_;
  PipelineStats pipeline_stats_;
  std::thread flush_thread_;
  /// Release/acquire: published after the full teardown completes, so a
  /// second Drain caller's early return observes every effect of the
  /// first (joined flush thread, failed futures).
  std::atomic<bool> drained_{false};
  /// Serializes Drain callers; the highest-ranked batcher lock because
  /// Drain acquires the queue lock beneath it.
  Mutex drain_mu_{"batcher.drain", 96};
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_BATCHER_H_
