#ifndef UHSCM_SERVE_REPLICA_SET_H_
#define UHSCM_SERVE_REPLICA_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "io/serialize.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace uhscm::serve {

struct ReplicaSetOptions {
  /// Index/engine configuration of the engine. engine.num_threads = 0
  /// gives its pool every hardware thread.
  ServingSnapshotOptions serving;
};

/// \brief Owns the process's one QueryEngine, hydrated from a snapshot
/// (ids, tombstones and epoch restored). It serves one engine per
/// process: in-process replicas split the same cores and added no
/// throughput, so replication belongs to a multi-process front end.
/// Callers reach the engine through `engine()`; the update forwarders
/// keep the ReplicaSet → Router → Batcher construction path unchanged.
class ReplicaSet {
 public:
  ReplicaSet(const io::CodesSnapshot& snapshot,
             const ReplicaSetOptions& options)
      : engine_(MakeQueryEngineFromSnapshot(io::CodesSnapshot(snapshot),
                                            options.serving)) {}

  QueryEngine* engine() { return engine_.get(); }

  std::vector<int> Append(const index::PackedCodes& codes) {
    return engine_->Append(codes);
  }
  int RemoveIds(const std::vector<int>& global_ids) {
    return engine_->RemoveIds(global_ids);
  }
  uint64_t epoch() const { return engine_->epoch(); }

 private:
  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_REPLICA_SET_H_
