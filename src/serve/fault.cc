#include "serve/fault.h"

namespace uhscm::serve {

namespace {
constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ULL;
}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Seed(uint64_t seed) {
  MutexLock lock(mu_);
  rng_ = Rng(seed);
}

void FaultInjector::Arm(const std::string& point, const FaultSpec& spec) {
  MutexLock lock(mu_);
  points_[point] = ArmedPoint{spec, 0, 0};
  armed_points_.store(static_cast<int64_t>(points_.size()),
                      std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& point) {
  MutexLock lock(mu_);
  points_.erase(point);
  armed_points_.store(static_cast<int64_t>(points_.size()),
                      std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  MutexLock lock(mu_);
  points_.clear();
  rng_ = Rng(kDefaultSeed);
  armed_points_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::Evaluate(const char* point) {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return false;
  ArmedPoint& armed = it->second;
  armed.hits += 1;
  if (armed.hits <= armed.spec.skip_hits) return false;
  if (armed.spec.max_fires >= 0 && armed.fires >= armed.spec.max_fires) {
    return false;
  }
  if (armed.spec.probability < 1.0 &&
      !rng_.Bernoulli(armed.spec.probability)) {
    return false;
  }
  armed.fires += 1;
  return true;
}

int64_t FaultInjector::hits(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it != points_.end() ? it->second.hits : 0;
}

int64_t FaultInjector::fires(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it != points_.end() ? it->second.fires : 0;
}

}  // namespace uhscm::serve
