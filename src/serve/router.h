#ifndef UHSCM_SERVE_ROUTER_H_
#define UHSCM_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/replica_set.h"

namespace uhscm::serve {

/// How the router spreads flushed batches over the replicas.
enum class RoutePolicy {
  /// Strict rotation — equal batch counts regardless of batch cost.
  /// Cheapest possible decision; best when batches are uniform.
  kRoundRobin,
  /// Pick the replica with the fewest queries currently in flight
  /// (ties broken by lowest index). Adapts to skewed batch costs and to
  /// replicas slowed by cache misses or concurrent updates.
  kLeastLoaded,
};

const char* RoutePolicyName(RoutePolicy policy);

/// Parses "rr"/"round-robin" or "least"/"least-loaded". Returns false on
/// anything else.
bool ParseRoutePolicy(const std::string& name, RoutePolicy* policy);

/// \brief Load-aware batch placement over a ReplicaSet.
///
/// Route() is a lock-free replica pick: an atomic rotation counter for
/// round-robin, or a scan of the replicas' in-flight query counters for
/// least-loaded (N is small — a handful of replicas — so the scan is a
/// few relaxed loads). Per-replica routed-batch counters are kept for
/// observability; they are maintained with relaxed atomics and carry no
/// ordering guarantees.
class Router {
 public:
  Router(ReplicaSet* replicas, RoutePolicy policy = RoutePolicy::kLeastLoaded);

  /// Picks the replica index for the next batch.
  int Route();

  /// Route() resolved to the engine itself.
  QueryEngine* Pick() { return replicas_->replica(Route()); }

  RoutePolicy policy() const { return policy_; }
  ReplicaSet* replicas() { return replicas_; }

  /// Batches routed to replica r so far.
  int64_t routed(int r) const {
    return routed_[static_cast<size_t>(r)].load(std::memory_order_relaxed);
  }

 private:
  ReplicaSet* replicas_;
  RoutePolicy policy_;
  /// Relaxed: the round-robin rotation counter — each fetch_add claims a
  /// distinct slot; no data is published through it.
  std::atomic<uint64_t> next_{0};
  /// Relaxed: per-replica routed-batch observability counters only.
  std::unique_ptr<std::atomic<int64_t>[]> routed_;
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_ROUTER_H_
