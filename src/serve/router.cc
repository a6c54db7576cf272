#include "serve/router.h"

#include "common/status.h"

namespace uhscm::serve {

const char* RoutePolicyName(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin:
      return "round-robin";
    case RoutePolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "unknown";
}

bool ParseRoutePolicy(const std::string& name, RoutePolicy* policy) {
  if (name == "rr" || name == "round-robin") {
    *policy = RoutePolicy::kRoundRobin;
    return true;
  }
  if (name == "least" || name == "least-loaded") {
    *policy = RoutePolicy::kLeastLoaded;
    return true;
  }
  return false;
}

Router::Router(ReplicaSet* replicas, RoutePolicy policy)
    : replicas_(replicas),
      policy_(policy),
      routed_(new std::atomic<int64_t>[static_cast<size_t>(
          replicas->num_replicas())]) {
  UHSCM_CHECK(replicas_ != nullptr, "Router: null replica set");
  for (int r = 0; r < replicas_->num_replicas(); ++r) {
    routed_[static_cast<size_t>(r)].store(0, std::memory_order_relaxed);
  }
}

int Router::Route() {
  const int n = replicas_->num_replicas();
  int pick = 0;
  if (policy_ == RoutePolicy::kRoundRobin) {
    pick = static_cast<int>(next_.fetch_add(1, std::memory_order_relaxed) %
                            static_cast<uint64_t>(n));
  } else {
    int64_t best = replicas_->Inflight(0);
    for (int r = 1; r < n; ++r) {
      const int64_t load = replicas_->Inflight(r);
      if (load < best) {
        best = load;
        pick = r;
      }
    }
  }
  routed_[static_cast<size_t>(pick)].fetch_add(1, std::memory_order_relaxed);
  return pick;
}

}  // namespace uhscm::serve
