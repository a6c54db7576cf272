// Helpers of the repo benchmark that do not touch the program under test:
// the percentile rule, the Poisson arrival schedule, the Zipf sampler,
// the span recorder of the traced run, and the metric report.
#ifndef UHSCM_BENCH_BENCH_LIB_H_
#define UHSCM_BENCH_BENCH_LIB_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace uhscm_bench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds used by every thread of the process so far. Under
/// paravirtual steal accounting, time the host took from a vCPU is not
/// counted.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Seconds elapsed since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Value at percentile `pct` (nearest rank on the sorted samples).
double PercentileOf(const std::vector<double>& sorted, double pct);

/// The reporting rule: the highest percentile of the ladder
/// {50, 90, 99, 99.9, 99.99} that keeps at least ten of `n` samples beyond
/// it. A failed request enters a latency sample set as +infinity, so it
/// misses every latency limit.
double HighestReportablePercentile(int64_t n);

/// True if no sample is infinite or NaN. A fixed-rate sub-phase with a
/// failed or never-sent request (a +infinity latency) fails this.
bool AllFinite(const std::vector<double>& samples);

/// (time, process CPU seconds) samples of a phase, in time order.
using CpuSamples = std::vector<std::pair<double, double>>;

/// CPU seconds used between times a <= b, interpolated linearly between
/// samples; -1 when the samples do not cover [a, b].
double CpuSecondsBetween(const CpuSamples& samples, double a, double b);

/// The highest completion rate over back-to-back windows of `window`
/// seconds that tile [from, to); `done_at_s` holds completion times in any
/// order. A window's rate is its completions per second of CPU time the
/// process got in it, times `cpus`: with every CPU kept busy that is the
/// wall-clock rate, corrected for time the host took from the vCPUs.
/// Windows the samples do not cover are skipped; 0 when none is left.
double BestWindowRate(const std::vector<double>& done_at_s, double from,
                      double to, double window, const CpuSamples& cpu,
                      int cpus);

/// Open-loop Poisson arrival times (seconds from phase start) at `rate`
/// per second over `seconds`, drawn from `seed`.
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    uint64_t seed);

/// Draws ranks 0..n-1 with P(r) proportional to 1/(r+1)^s by inverting the
/// cumulative distribution.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);
  /// Rank for a uniform draw u in [0, 1).
  int Sample(double u) const;
  /// Share of draws that land on ranks < m.
  double HeadShare(int m) const;

 private:
  std::vector<double> cdf_;
};

/// One span of the traced run: a call the benchmark made into a layer.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;    ///< 0 for a root span
  uint64_t request = 0;   ///< shared by the spans of one request (0: none)
  std::string name;       ///< "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Keeps spans in memory until the run ends. Disabled recorders cost one
/// branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent = 0, uint64_t request = 0);
  /// Reserves an id for a span whose end is not known yet (a parent).
  uint64_t NewId();
  /// Records a span under an id from NewId().
  void RecordWithId(uint64_t id, const std::string& name, int64_t start_ns,
                    int64_t end_ns, uint64_t parent = 0,
                    uint64_t request = 0);
  std::vector<Span> spans() const;
  size_t size() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Times a block as a span (when tracing) and returns its seconds.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }
  /// Seconds since construction.
  double Seconds() const { return SecondsSince(start_ns_); }

 private:
  SpanRecorder* recorder_;
  std::string name_;
  uint64_t parent_;
  uint64_t id_ = 0;
  int64_t start_ns_;
};

/// Self time per layer: each span's duration minus the part of it its
/// child spans cover, summed by the layer prefix of the span name.
std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans);

/// Writes spans as a Chrome trace ("traceEvents") JSON file.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

/// Reads a numeric field of the obs registry's JSON dump by metric name,
/// e.g. "cache.hits". Returns false when the registry has no such metric,
/// which is how a removed component shows.
bool RegistryValue(const std::string& dump_json, const std::string& name,
                   double* value);

/// Metrics of one run, in insertion order, printed as the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// False if a metric is infinite or NaN, e.g. a p50 over a sub-phase
  /// whose requests mostly failed.
  bool AllFinite() const;
  /// The result line. It says "correct": false unless `correct` holds and
  /// every metric is finite.
  std::string ResultLine(bool correct, int64_t attempted,
                         int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

}  // namespace uhscm_bench

#endif  // UHSCM_BENCH_BENCH_LIB_H_
