#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace uhscm::obs {

namespace {
// Relaxed: a runtime on/off flag polled per operation; flipping it does
// not need to synchronize with instrumentation already in flight.
std::atomic<bool> g_runtime_enabled{true};
}  // namespace

bool RuntimeEnabled() {
  return g_runtime_enabled.load(std::memory_order_relaxed);
}

void SetRuntimeEnabled(bool enabled) {
  g_runtime_enabled.store(enabled, std::memory_order_relaxed);
}

// ----------------------------------------------------------- Histogram

int Histogram::BucketIndex(int64_t value) {
  if (value < 0) return 0;
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < kSubBuckets) return static_cast<int>(v);
  // v in [2^m, 2^(m+1)) with m >= kSubBucketBits: the octave is split
  // into kSubBuckets equal slots of width 2^(m - kSubBucketBits).
  const int m = std::bit_width(v) - 1;
  if (m >= kMaxExponent) return kNumBuckets - 1;
  const int slot =
      static_cast<int>(v >> (m - kSubBucketBits)) - kSubBuckets;
  return (m - kSubBucketBits + 1) * kSubBuckets + slot;
}

int64_t Histogram::BucketLowerBound(int bucket) {
  bucket = std::clamp(bucket, 0, kNumBuckets - 1);
  if (bucket < kSubBuckets) return bucket;
  const int m = bucket / kSubBuckets + kSubBucketBits - 1;
  const int slot = bucket % kSubBuckets;
  return static_cast<int64_t>(kSubBuckets + slot) << (m - kSubBucketBits);
}

int64_t Histogram::BucketUpperBound(int bucket) {
  bucket = std::clamp(bucket, 0, kNumBuckets - 1);
  if (bucket < kSubBuckets) return bucket + 1;
  const int m = bucket / kSubBuckets + kSubBucketBits - 1;
  return BucketLowerBound(bucket) +
         (static_cast<int64_t>(1) << (m - kSubBucketBits));
}

int64_t Histogram::BucketRepresentative(int bucket) {
  if (bucket < kSubBuckets) return bucket;  // exact in the linear region
  return (BucketLowerBound(bucket) + BucketUpperBound(bucket)) / 2;
}

void Histogram::RecordN(int64_t value, int64_t n) {
  if (n <= 0) return;
  counts_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      static_cast<uint64_t>(n), std::memory_order_relaxed);
  total_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  sum_.fetch_add(std::max<int64_t>(0, value) * n, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.total = total_.load(std::memory_order_relaxed);
  if (snap.total == 0) return snap;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.counts.resize(kNumBuckets);
  for (int b = 0; b < kNumBuckets; ++b) {
    snap.counts[static_cast<size_t>(b)] =
        counts_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

int64_t HistogramSnapshot::ValueAtPercentile(double p) const {
  if (total == 0 || counts.empty()) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank, matching serve::Percentile: the smallest bucket whose
  // cumulative count covers ceil(p% * total) samples.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen >= rank) {
      return Histogram::BucketRepresentative(static_cast<int>(b));
    }
  }
  return Histogram::BucketRepresentative(Histogram::kNumBuckets - 1);
}

// ------------------------------------------------------ MetricsRegistry

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

namespace {

void AppendHistogramFields(const HistogramSnapshot& snap, std::string* out) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "\"count\": %" PRIu64 ", \"mean\": %.1f, \"p50\": %" PRId64
                ", \"p90\": %" PRId64 ", \"p99\": %" PRId64
                ", \"max\": %" PRId64,
                snap.total, snap.mean(), snap.ValueAtPercentile(50.0),
                snap.ValueAtPercentile(90.0), snap.ValueAtPercentile(99.0),
                snap.ValueAtPercentile(100.0));
  *out += buffer;
}

}  // namespace

std::string MetricsRegistry::DumpJson() const {
  MutexLock lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  char buffer[128];
  for (const auto& [name, counter] : counters_) {
    std::snprintf(buffer, sizeof(buffer), "%s\n    \"%s\": %" PRId64,
                  first ? "" : ",", name.c_str(), counter->value());
    out += buffer;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    std::snprintf(buffer, sizeof(buffer), "%s\n    \"%s\": %" PRId64,
                  first ? "" : ",", name.c_str(), gauge->value());
    out += buffer;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n    \"" : ",\n    \"";
    out += name;
    out += "\": {";
    AppendHistogramFields(histogram->Snapshot(), &out);
    out += "}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::DumpText() const {
  MutexLock lock(mu_);
  std::string out;
  char buffer[256];
  for (const auto& [name, counter] : counters_) {
    std::snprintf(buffer, sizeof(buffer), "%-40s %" PRId64 "\n", name.c_str(),
                  counter->value());
    out += buffer;
  }
  for (const auto& [name, gauge] : gauges_) {
    std::snprintf(buffer, sizeof(buffer), "%-40s %" PRId64 "\n", name.c_str(),
                  gauge->value());
    out += buffer;
  }
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snap = histogram->Snapshot();
    std::snprintf(buffer, sizeof(buffer),
                  "%-40s count=%" PRIu64 " mean=%.1f p50=%" PRId64
                  " p99=%" PRId64 " max=%" PRId64 "\n",
                  name.c_str(), snap.total, snap.mean(),
                  snap.ValueAtPercentile(50.0), snap.ValueAtPercentile(99.0),
                  snap.ValueAtPercentile(100.0));
    out += buffer;
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::SnapshotHistograms(const std::string& prefix) const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  for (const auto& [name, histogram] : histograms_) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.emplace_back(name, histogram->Snapshot());
    }
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace uhscm::obs
