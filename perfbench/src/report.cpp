#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>

namespace perfbench {

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED operation: " << what << "\n";
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::cerr << "perfbench: FAILED check: " << what << "\n";
  }
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

std::vector<double> input_best(const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const std::vector<double>& input : samples) {
    out.push_back(*std::min_element(input.begin(), input.end()));
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

CpuRotation::CpuRotation(int period_ms) : target_(pthread_self()), period_ms_(period_ms) {
  CPU_ZERO(&allowed_);
  if (pthread_getaffinity_np(target_, sizeof(allowed_), &allowed_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  if (cpus_.size() > 1) {
    mover_ = std::thread([this] { run(); });
  }
}

CpuRotation::~CpuRotation() {
  if (!mover_.joinable()) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  mover_.join();
  pthread_setaffinity_np(target_, sizeof(allowed_), &allowed_);
}

void CpuRotation::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (std::size_t step = 0; !stop_; ++step) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    pthread_setaffinity_np(target_, sizeof(one), &one);
    wake_.wait_for(lock, std::chrono::milliseconds(period_ms_), [this] { return stop_; });
  }
}

PinnedThread::PinnedThread(std::size_t index) {
  CPU_ZERO(&allowed_);
  if (pthread_getaffinity_np(pthread_self(), sizeof(allowed_), &allowed_) != 0) {
    return;
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) {
      cpus.push_back(cpu);
    }
  }
  if (cpus.size() < 2) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

PinnedThread::~PinnedThread() {
  if (pinned_) {
    pthread_setaffinity_np(pthread_self(), sizeof(allowed_), &allowed_);
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
