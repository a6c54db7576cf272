#include "loadgen.h"

#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "serve/serve_stats.h"

namespace uhscm_bench {
namespace {

using uhscm::serve::SearchResponse;

/// Sleeps wake within microseconds instead of the default 50 us slack, so
/// send and completion timestamps are not rounded up by the timer.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

struct InFlight {
  int phase = 0;
  int64_t seq = 0;
  int query_row = 0;
  int64_t intended_ns = 0;
  int64_t sent_ns = 0;
  int64_t submitted_ns = 0;
  std::future<SearchResponse> future;
};

struct Completion {
  int phase = 0;
  int64_t intended_ns = 0;
  int64_t sent_ns = 0;
  int64_t submitted_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

/// Stamps each request as it completes, in any order: it blocks on the
/// oldest outstanding future for at most kSweep, then sweeps every
/// outstanding future, so a request that overtakes the oldest is stamped
/// within kSweep of its completion without busy polling.
class Collector {
 public:
  static constexpr std::chrono::microseconds kSweep{100};
  static constexpr int64_t kCpuSampleEveryNs = 5000000;

  Collector(int num_phases, int sample_every, SpanRecorder* spans,
            std::vector<SampledResponse>* sampled)
      : sample_every_(sample_every),
        spans_(spans),
        sampled_(sampled),
        completed_(static_cast<size_t>(num_phases)) {
    for (auto& c : completed_) c.store(0);
    thread_ = std::thread([this] { Loop(); });
  }
  ~Collector() { Stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Add(InFlight request) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      incoming_.push_back(std::move(request));
    }
    cv_.notify_one();
  }
  int64_t completed(int phase) const {
    return completed_[static_cast<size_t>(phase)].load();
  }
  /// Joins the thread once every added request has completed.
  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  const std::vector<Completion>& completions() const { return done_; }
  /// (steady-clock ns, process CPU seconds) samples, in time order.
  const std::vector<std::pair<int64_t, double>>& cpu_samples() const {
    return cpu_samples_;
  }

 private:
  void Loop() {
    TightenTimerSlack();
    std::vector<InFlight> outstanding;  // oldest first
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (outstanding.empty()) {
          cv_.wait(lock, [&] { return stop_ || !incoming_.empty(); });
          if (incoming_.empty()) return;  // stopped and nothing in flight
        }
        for (InFlight& r : incoming_) outstanding.push_back(std::move(r));
        incoming_.clear();
      }
      outstanding.front().future.wait_for(kSweep);
      size_t kept = 0;
      for (size_t i = 0; i < outstanding.size(); ++i) {
        InFlight& r = outstanding[i];
        if (r.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const int64_t done_ns = NowNs();
          Finish(r, done_ns, r.future.get());
        } else {
          if (kept != i) outstanding[kept] = std::move(r);
          ++kept;
        }
      }
      outstanding.resize(kept);
      const int64_t now_ns = NowNs();
      if (now_ns - last_cpu_sample_ns_ >= kCpuSampleEveryNs) {
        cpu_samples_.push_back({now_ns, ProcessCpuSeconds()});
        last_cpu_sample_ns_ = now_ns;
      }
    }
  }

  void Finish(const InFlight& r, int64_t done_ns, SearchResponse response) {
    const bool ok = response.status.ok();
    done_.push_back({r.phase, r.intended_ns, r.sent_ns, r.submitted_ns,
                     done_ns, ok});
    if (ok && sample_every_ > 0 && r.seq % sample_every_ == 0) {
      sampled_->push_back({r.query_row, std::move(response.neighbors)});
    }
    if (spans_->enabled()) {
      const uint64_t request = static_cast<uint64_t>(r.seq) + 1;
      const uint64_t root = spans_->NewId();
      spans_->RecordWithId(root, "serve.request", r.intended_ns, done_ns, 0,
                           request);
      spans_->Record("loadgen.late", r.intended_ns, r.sent_ns, root, request);
      spans_->Record("serve.submit", r.sent_ns, r.submitted_ns, root, request);
    }
    completed_[static_cast<size_t>(r.phase)].fetch_add(1);
  }

  const int sample_every_;
  SpanRecorder* spans_;
  std::vector<SampledResponse>* sampled_;
  std::vector<std::atomic<int64_t>> completed_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<InFlight> incoming_;
  bool stop_ = false;
  std::vector<Completion> done_;  // collector thread only until Stop()
  std::vector<std::pair<int64_t, double>> cpu_samples_;  // likewise
  int64_t last_cpu_sample_ns_ = 0;
  std::thread thread_;
};

}  // namespace

std::vector<PhaseResult> RunOpenLoop(const LoadPlan& plan,
                                     uhscm::serve::Batcher* batcher,
                                     SpanRecorder* spans,
                                     std::vector<SampledResponse>* sampled,
                                     int64_t* seq) {
  TightenTimerSlack();
  const int num_phases = static_cast<int>(plan.phases.size());
  Collector collector(num_phases, plan.sample_every, spans, sampled);
  std::vector<int64_t> sent(static_cast<size_t>(num_phases), 0);
  std::vector<int64_t> abandoned(static_cast<size_t>(num_phases), 0);
  std::vector<int64_t> phase_start(static_cast<size_t>(num_phases), 0);
  std::vector<PhaseResult> results(static_cast<size_t>(num_phases));
  uhscm::obs::MetricsRegistry& registry =
      uhscm::obs::MetricsRegistry::Global();

  for (int p = 0; p < num_phases; ++p) {
    const PhaseSpec& phase = plan.phases[static_cast<size_t>(p)];
    const std::vector<double> schedule = PoissonSchedule(
        phase.rate, phase.seconds, plan.seed * 1000003ULL + static_cast<uint64_t>(p));
    batcher->ResetStats();
    const int64_t start_ns = NowNs() + 1000000;  // first send 1 ms out
    const int64_t end_ns =
        start_ns + static_cast<int64_t>(phase.seconds * 1e9);
    phase_start[static_cast<size_t>(p)] = start_ns;
    const int64_t max_behind_ns =
        static_cast<int64_t>(kMaxBehindSeconds * 1e9);
    for (size_t i = 0; i < schedule.size(); ++i) {
      const int64_t intended_ns =
          start_ns + static_cast<int64_t>(schedule[i] * 1e9);
      const int64_t now_ns = NowNs();
      if (now_ns < intended_ns) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(intended_ns - now_ns));
      } else if (phase.throughput_only ? now_ns >= end_ns
                                       : now_ns - intended_ns > max_behind_ns) {
        // Overload past its end: the rest is dropped, neither attempted
        // nor failed. A fixed-rate phase this far behind: the rest counts
        // as attempted and failed, so it misses every latency limit.
        if (!phase.throughput_only) {
          abandoned[static_cast<size_t>(p)] =
              static_cast<int64_t>(schedule.size() - i);
        }
        break;
      }
      InFlight r;
      r.phase = p;
      r.seq = (*seq)++;
      r.query_row = plan.pick(r.seq);
      r.intended_ns = intended_ns;
      r.sent_ns = NowNs();
      r.future = batcher->Submit(*plan.queries, r.query_row, plan.k);
      r.submitted_ns = NowNs();
      collector.Add(std::move(r));
      ++sent[static_cast<size_t>(p)];
    }
    while (collector.completed(p) < sent[static_cast<size_t>(p)]) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const uhscm::serve::ServeStatsSnapshot snap = batcher->stats();
    uhscm::serve::FillRegistry(snap, &registry);
    PhaseResult& res = results[static_cast<size_t>(p)];
    res.start_ns = start_ns;
    res.end_ns = NowNs();
    res.registry_json = registry.DumpJson();
    res.queue_wait_p99_ms = snap.time_in_queue_p99_ms;
    res.busy_seconds = snap.busy_seconds;
    res.wall_seconds = snap.wall_seconds;
    res.queries = snap.queries;
    res.batches = snap.batches;
  }
  collector.Stop();

  for (int p = 0; p < num_phases; ++p) {
    PhaseResult& res = results[static_cast<size_t>(p)];
    const PhaseSpec& phase = plan.phases[static_cast<size_t>(p)];
    res.name = phase.name;
    res.rate = phase.rate;
    res.seconds = phase.seconds;
    res.sent = sent[static_cast<size_t>(p)];
    res.abandoned = abandoned[static_cast<size_t>(p)];
    res.failed = res.abandoned;
    res.latency_ms.assign(static_cast<size_t>(res.abandoned),
                          std::numeric_limits<double>::infinity());
  }
  for (const auto& [ns, cpu_s] : collector.cpu_samples()) {
    for (PhaseResult& res : results) {
      if (ns >= res.start_ns && ns <= res.end_ns) {
        res.cpu_at_s.push_back(
            {static_cast<double>(ns - res.start_ns) * 1e-9, cpu_s});
      }
    }
  }
  for (const Completion& c : collector.completions()) {
    PhaseResult& res = results[static_cast<size_t>(c.phase)];
    const int64_t start_ns = phase_start[static_cast<size_t>(c.phase)];
    if (c.ok) {
      ++res.succeeded;
      res.latency_ms.push_back(static_cast<double>(c.done_ns - c.intended_ns) * 1e-6);
      res.done_at_s.push_back(static_cast<double>(c.done_ns - start_ns) * 1e-9);
    } else {
      ++res.failed;
      res.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
    res.late_ms.push_back(static_cast<double>(c.sent_ns - c.intended_ns) * 1e-6);
    res.submit_ms.push_back(static_cast<double>(c.submitted_ns - c.sent_ns) * 1e-6);
  }
  std::vector<PhaseResult> recorded;
  for (int p = 0; p < num_phases; ++p) {
    if (plan.phases[static_cast<size_t>(p)].recorded) {
      recorded.push_back(std::move(results[static_cast<size_t>(p)]));
    }
  }
  return recorded;
}

}  // namespace uhscm_bench
