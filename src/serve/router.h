#ifndef UHSCM_SERVE_ROUTER_H_
#define UHSCM_SERVE_ROUTER_H_

#include "serve/replica_set.h"

namespace uhscm::serve {

/// \brief The batcher's handle on the engine it searches. With one
/// engine per process there is no placement decision left to make.
class Router {
 public:
  explicit Router(ReplicaSet* replicas) : engine_(replicas->engine()) {}

  QueryEngine* engine() const { return engine_; }

 private:
  QueryEngine* engine_;
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_ROUTER_H_
