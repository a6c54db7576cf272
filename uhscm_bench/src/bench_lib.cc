#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>

namespace uhscm_bench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileOf(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: the smallest value with at least pct% of samples <= it.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double HighestReportablePercentile(int64_t n) {
  double best = 50.0;
  for (double pct : {90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the percentile's rank.
    const double beyond = static_cast<double>(n) * (1.0 - pct / 100.0);
    if (beyond + 1e-9 >= 10.0) best = pct;
  }
  return best;
}

bool AllFinite(const std::vector<double>& samples) {
  return std::all_of(samples.begin(), samples.end(),
                     [](double v) { return std::isfinite(v); });
}

double CpuSecondsBetween(const CpuSamples& samples, double a, double b) {
  if (samples.empty() || a < samples.front().first ||
      b > samples.back().first) {
    return -1.0;
  }
  auto at = [&](double t) {
    auto hi = std::lower_bound(
        samples.begin(), samples.end(), t,
        [](const std::pair<double, double>& s, double v) { return s.first < v; });
    if (hi == samples.begin()) return hi->second;
    const auto lo = hi - 1;
    if (hi == samples.end() || hi->first == lo->first) return lo->second;
    const double f = (t - lo->first) / (hi->first - lo->first);
    return lo->second + f * (hi->second - lo->second);
  };
  return at(b) - at(a);
}

double BestWindowRate(const std::vector<double>& done_at_s, double from,
                      double to, double window, const CpuSamples& cpu,
                      int cpus) {
  if (window <= 0.0 || to - from < window) return 0.0;
  const int windows = static_cast<int>((to - from) / window + 1e-9);
  std::vector<int64_t> counts(static_cast<size_t>(windows), 0);
  for (double t : done_at_s) {
    if (t < from) continue;
    const int w = static_cast<int>((t - from) / window);
    if (w < windows) ++counts[static_cast<size_t>(w)];
  }
  double best = 0.0;
  for (int w = 0; w < windows; ++w) {
    const double a = from + w * window;
    const double cpu_s = CpuSecondsBetween(cpu, a, a + window);
    if (cpu_s <= 0.0) continue;
    best = std::max(best, static_cast<double>(counts[static_cast<size_t>(w)]) *
                              cpus / cpu_s);
  }
  return best;
}

std::vector<double> PoissonSchedule(double rate, double seconds,
                                    uint64_t seed) {
  std::vector<double> times;
  if (rate <= 0.0 || seconds <= 0.0) return times;
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  times.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  for (double t = gap(gen); t < seconds; t += gap(gen)) times.push_back(t);
  return times;
}

ZipfSampler::ZipfSampler(int n, double s) {
  cdf_.resize(static_cast<size_t>(std::max(n, 1)));
  double total = 0.0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

int ZipfSampler::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(
      std::min<ptrdiff_t>(it - cdf_.begin(),
                          static_cast<ptrdiff_t>(cdf_.size()) - 1));
}

double ZipfSampler::HeadShare(int m) const {
  if (m <= 0) return 0.0;
  return cdf_[std::min(static_cast<size_t>(m), cdf_.size()) - 1];
}

uint64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t SpanRecorder::Record(const std::string& name, int64_t start_ns,
                              int64_t end_ns, uint64_t parent,
                              uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back({id, parent, request, name, start_ns, end_ns});
  return id;
}

void SpanRecorder::RecordWithId(uint64_t id, const std::string& name,
                                int64_t start_ns, int64_t end_ns,
                                uint64_t parent, uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, request, name, start_ns, end_ns});
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       uint64_t parent)
    : recorder_(recorder),
      name_(std::move(name)),
      parent_(parent),
      start_ns_(NowNs()) {
  if (recorder_ != nullptr && recorder_->enabled()) id_ = recorder_->NewId();
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) recorder_->RecordWithId(id_, name_, start_ns_, NowNs(), parent_);
}

std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool RegistryValue(const std::string& dump_json, const std::string& name,
                   double* value) {
  // The dump writes each counter and gauge as  "name": <number>  and each
  // histogram as  "name": {...}; only the scalar shape is read here.
  const std::string key = "\"" + name + "\":";
  const size_t at = dump_json.find(key);
  if (at == std::string::npos) return false;
  size_t pos = at + key.size();
  while (pos < dump_json.size() && dump_json[pos] == ' ') ++pos;
  char* end = nullptr;
  const double v = std::strtod(dump_json.c_str() + pos, &end);
  if (end == dump_json.c_str() + pos) return false;
  *value = v;
  return true;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

bool Report::AllFinite() const {
  for (const auto& [name, vu] : metrics_) {
    if (!std::isfinite(vu.first)) return false;
  }
  return true;
}

std::string Report::ResultLine(bool correct, int64_t attempted,
                               int64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct && AllFinite() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    char buf[64];
    // %.17g keeps every digit; a non-finite value is not valid JSON, so it
    // prints as -1, and the line above already says "correct": false.
    const double v = std::isfinite(vu.first) ? vu.first : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << vu.second << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace uhscm_bench
