// Open-loop load generator over serve::Batcher::Submit.
//
// One generator thread sends each request at its Poisson-scheduled
// intended time and one collector thread timestamps completions in
// whatever order they finish (replicas or hedges may reorder them).
// Latency runs from the intended send time, so a stall in the generator or
// in admission is charged to every request it delays.
#ifndef UHSCM_BENCH_LOADGEN_H_
#define UHSCM_BENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "index/neighbor.h"
#include "index/packed_codes.h"
#include "serve/batcher.h"

namespace uhscm_bench {

/// One fixed-rate phase of the run.
struct PhaseSpec {
  std::string name;
  double rate = 0.0;     ///< offered requests per second
  double seconds = 0.0;  ///< how long the generator sends
  bool recorded = true;  ///< false for the warm-up phase
  /// The overload phase reports throughput only: once its time is up, the
  /// rest of its schedule is dropped. A fixed-rate phase sends every
  /// scheduled request, late ones too, and only gives up on the rest of
  /// its schedule when the generator has fallen kMaxBehindSeconds behind.
  bool throughput_only = false;
};

/// How far a fixed-rate phase's generator may fall behind its schedule
/// before the unsent rest is abandoned.
inline constexpr double kMaxBehindSeconds = 1.0;

/// What one phase measured.
struct PhaseResult {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;     ///< failed, refused or abandoned
  int64_t abandoned = 0;  ///< scheduled in a fixed-rate phase, never sent
  // Per request, in completion order:
  std::vector<double> latency_ms;  ///< failures and abandoned requests
                                   ///< enter as +infinity
  std::vector<double> late_ms;     ///< send time minus intended time
  std::vector<double> submit_ms;   ///< time blocked inside Submit
  /// Completion times from phase start of the requests that succeeded.
  std::vector<double> done_at_s;
  /// When the phase started sending, and when it had drained.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// (seconds from phase start, process CPU seconds), sampled about every
  /// 5 ms while requests are in flight.
  CpuSamples cpu_at_s;
  /// obs registry dump taken when the phase has drained.
  std::string registry_json;
  /// Fields of the pipeline's stats snapshot the benchmark reads.
  double queue_wait_p99_ms = 0.0;
  double busy_seconds = 0.0;
  double wall_seconds = 0.0;
  int64_t queries = 0;
  int64_t batches = 0;
};

/// The traffic of a run: which codes are queried, at what depth, when.
struct LoadPlan {
  const uhscm::index::PackedCodes* queries = nullptr;
  int k = 10;
  std::vector<PhaseSpec> phases;
  /// Seeds the arrival schedules.
  uint64_t seed = 1;
  /// Keeps the response of every `sample_every`-th request of recorded
  /// phases for the output check (0 keeps none).
  int sample_every = 0;
  /// Query row of the `seq`-th request of the run (unique rows, or
  /// Zipf-hot rows).
  std::function<int(int64_t seq)> pick;
};

/// A kept response for the output check.
struct SampledResponse {
  int query_row = 0;
  std::vector<uhscm::index::Neighbor> neighbors;
};

/// Runs the phases in order against `batcher` and returns one result per
/// recorded phase. Between phases it waits until every request of the
/// finished phase has completed, then snapshots the pipeline's stats.
/// Requests are numbered from `*seq` on, and `*seq` is left past the last
/// one, so a later call continues the numbering.
std::vector<PhaseResult> RunOpenLoop(const LoadPlan& plan,
                                     uhscm::serve::Batcher* batcher,
                                     SpanRecorder* spans,
                                     std::vector<SampledResponse>* sampled,
                                     int64_t* seq);

}  // namespace uhscm_bench

#endif  // UHSCM_BENCH_LOADGEN_H_
