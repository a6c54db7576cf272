#ifndef UHSCM_SERVE_REQUEST_QUEUE_H_
#define UHSCM_SERVE_REQUEST_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <vector>

#include "common/annotated_sync.h"
#include "common/status.h"
#include "index/neighbor.h"
#include "obs/trace.h"

namespace uhscm::serve {

/// What a pipeline client's future resolves to: either an OK status and
/// the ascending (distance, id) neighbor list, or a non-OK status (the
/// pipeline drained before the request was served, or the request was
/// malformed) and an empty list.
struct SearchResponse {
  Status status;
  std::vector<index::Neighbor> neighbors;
};

/// One admitted query waiting to be batched: its packed words, the
/// requested k, the admission timestamp (for time-in-queue accounting),
/// the trace context the sampler assigned at admission (trace_id 0 for
/// the unsampled majority; parent_span is the root "request" span the
/// batcher completes when the response resolves), and the promise the
/// client's future is attached to.
struct PendingRequest {
  std::vector<uint64_t> words;
  int k = 0;
  std::chrono::steady_clock::time_point admit_time;
  /// Absolute deadline; time_point::max() means none. The batcher
  /// checks it at flush time — an overdue request resolves
  /// kDeadlineExceeded instead of being searched, so a request never
  /// burns engine time it can no longer use.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  obs::TraceContext trace;
  std::promise<SearchResponse> promise;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

/// \brief Bounded MPMC admission queue: the front door of the async
/// serve pipeline.
///
/// Any number of client threads Submit single queries and immediately
/// receive a future; the batcher's flush thread collects them into
/// adaptive batches with CollectBatch. The bound is the backpressure
/// mechanism: when the queue is full, Submit blocks (TrySubmit returns
/// false) until the batcher drains it, so a slow engine surfaces as
/// client-side pushback instead of unbounded memory growth.
///
/// Shutdown protocol: Close() rejects all later submissions with an
/// Unavailable status and wakes the collector, which stops popping (a
/// partially collected batch is still returned once and flushed with
/// real results); FailPending() then completes every request still
/// queued with the given shutdown status — no request is ever silently
/// dropped.
class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity);

  /// Admits one query (num_words packed words, copied) and returns the
  /// future its batch will complete. Blocks while the queue is full;
  /// after Close() returns an already-completed future carrying an
  /// Unavailable status. `deadline` (absolute; time_point::max() = none)
  /// rides along for the batcher to enforce.
  std::future<SearchResponse> Submit(
      const uint64_t* words, int num_words, int k,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

  /// Non-blocking Submit: returns false (and leaves *out untouched) when
  /// the queue is full. A closed queue still "succeeds" with a rejected
  /// ready future, mirroring Submit.
  bool TrySubmit(const uint64_t* words, int num_words, int k,
                 std::future<SearchResponse>* out);

  /// Collects the next batch for the flush thread: blocks until at least
  /// one request is queued, then keeps collecting until either
  /// `max_batch` requests are in hand or `timeout` has elapsed since the
  /// batch opened — B-or-T, whichever first. Returns false only when the
  /// queue is closed and nothing was collected (the flush thread's exit
  /// signal). A close mid-collection returns the partial batch.
  bool CollectBatch(int max_batch, std::chrono::microseconds timeout,
                    std::vector<PendingRequest>* out);

  /// Rejects all future submissions and wakes every waiter. Requests
  /// already queued stay queued (see FailPending).
  void Close();

  /// Completes every still-queued request's promise with `status` and
  /// empties the queue. Returns how many were failed. Call after Close()
  /// + joining the collector; racing a live collector would hand it and
  /// the drain the same requests.
  int FailPending(const Status& status);

  /// Requests currently queued (admitted, not yet collected).
  size_t depth() const;
  size_t capacity() const { return capacity_; }
  bool closed() const;

  /// Submissions rejected because the queue was closed (every such
  /// caller got an immediately-resolved Unavailable future). Counted
  /// here, at the only place that can see them race-free.
  int64_t rejected() const;
  void ResetRejected();

 private:
  const size_t capacity_;
  /// Leaf lock in the batcher hierarchy: held only around queue state,
  /// never while calling out (promises resolve outside it).
  mutable Mutex mu_{"serve.queue", 30};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<PendingRequest> queue_ UHSCM_GUARDED_BY(mu_);
  bool closed_ UHSCM_GUARDED_BY(mu_) = false;
  int64_t rejected_ UHSCM_GUARDED_BY(mu_) = 0;
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_REQUEST_QUEUE_H_
