#ifndef UHSCM_SERVE_FAULT_H_
#define UHSCM_SERVE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/annotated_sync.h"
#include "common/rng.h"

namespace uhscm::serve {

/// Compile-time kill switch for the fault-injection layer. Configure
/// with -DUHSCM_FAULTS=OFF (which defines UHSCM_FAULTS_DISABLED) to
/// compile every injection check down to a constant-false — the same
/// pattern the obs layer uses for tracing.
#ifdef UHSCM_FAULTS_DISABLED
inline constexpr bool kFaultsCompiledIn = false;
#else
inline constexpr bool kFaultsCompiledIn = true;
#endif

/// \name Named failure points threaded into the serving hot path.
///@{
/// Rejects a request at the admission queue with Unavailable —
/// injected load-shedding at the pipeline's front door.
inline constexpr char kFaultQueueAdmit[] = "queue.admit";
///@}

/// When an armed point fires. Defaults fire on every evaluation;
/// the fields carve out deterministic or probabilistic subsets.
struct FaultSpec {
  /// Skip this many evaluations before becoming eligible to fire —
  /// "fail the K-th request" is skip_hits = K-1 (hits are counted from
  /// the moment the point is armed).
  int64_t skip_hits = 0;
  /// Stop firing after this many fires; -1 = unlimited. A one-shot
  /// fault is max_fires = 1.
  int64_t max_fires = -1;
  /// Probability an eligible evaluation fires, drawn from the
  /// injector's seeded generator — deterministic for a fixed seed and
  /// evaluation order.
  double probability = 1.0;
};

/// \brief Seeded, process-wide registry of armed failure points.
///
/// The serving hot path asks `ShouldFail(point)` at each threaded-in
/// failure site. With nothing armed the cost is one relaxed atomic
/// load; with the layer compiled out (-DUHSCM_FAULTS=OFF) the calls are
/// constant-false and the optimizer removes them. Arming is runtime-only — production binaries carry the
/// (idle) checks unless compiled out.
///
/// Determinism: all probabilistic draws come from one generator seeded
/// by Seed(), and per-point hit counters advance only while the point
/// is armed — so a fixed seed plus a deterministic evaluation order
/// reproduces the exact same fault schedule. Tests that need exactness
/// use probability 1 with skip_hits/max_fires instead.
class FaultInjector {
 public:
  /// The process-wide injector every failure point consults.
  static FaultInjector& Global();

  /// Reseeds the probability generator (does not disarm anything).
  void Seed(uint64_t seed);

  /// Arms (or re-arms, resetting its counters) a failure point.
  void Arm(const std::string& point, const FaultSpec& spec);

  /// Disarms one point (no-op when not armed).
  void Disarm(const std::string& point);

  /// Disarms every point and reseeds with the default seed.
  void Reset();

  /// True when the armed spec for `point` fires on this evaluation.
  bool ShouldFail(const char* point) {
    if constexpr (!kFaultsCompiledIn) return false;
    if (armed_points_.load(std::memory_order_relaxed) == 0) return false;
    return Evaluate(point);
  }

  /// Evaluations of an armed point since it was armed (0 if unarmed).
  int64_t hits(const std::string& point) const;
  /// Times an armed point actually fired since it was armed.
  int64_t fires(const std::string& point) const;

 private:
  struct ArmedPoint {
    FaultSpec spec;
    int64_t hits = 0;
    int64_t fires = 0;
  };

  /// Finds the armed entry for `point`, counts the hit, and returns
  /// whether it fires.
  bool Evaluate(const char* point);

  /// A leaf lock: nothing is acquired beneath it.
  mutable Mutex mu_{"serve.fault", 14};
  std::map<std::string, ArmedPoint> points_ UHSCM_GUARDED_BY(mu_);
  Rng rng_ UHSCM_GUARDED_BY(mu_);
  /// Armed-point count mirrored outside mu_ so the hot path's
  /// nothing-armed check is one relaxed load. Relaxed: a stale zero at
  /// worst skips an evaluation that raced the Arm — arming is not a
  /// synchronization point for the serving threads.
  std::atomic<int64_t> armed_points_{0};
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_FAULT_H_
