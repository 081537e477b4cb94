// What one benchmark run reports: named metrics with units, the attempted /
// failed operation counts, and the output checks. Also the run options and
// the measurement helpers every workload uses.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace cohls {}

namespace perfbench {

using namespace cohls;  // NOLINT: the benchmark is one client of the whole library

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Sets (or overwrites) a metric.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// Counts one attempted operation and, when `ok` is false, one failed
  /// operation (printing `what` to stderr).
  void operation(bool ok, const std::string& what);
  /// A check on the run as a whole (not an operation): a failure marks the
  /// run incorrect without changing the operation counts.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }

 private:
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

/// Options every workload receives from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: the smallest input set that still exercises every layer
  /// and check of the workload (the benchmark's own test uses it).
  bool smoke = false;
  /// Worker count of the parallel side: min(4, hardware threads).
  int workers = 1;
  /// layer-closure only: overrides the expected proven optima (test hook
  /// that lets the benchmark's test show a wrong optimum fails the run).
  std::vector<double> expected_optima;
};

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated q-quantile, q in [0, 1] (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Each input's fastest sample over a run's repetitions. The host these
/// runs share is noisy in bursts of seconds (measured on a shared 4-vCPU
/// host: the median of one job's repetitions spread 25% between runs, the
/// minimum 2.5%), and
/// interference only ever adds time, so the fastest repetition is the
/// steady estimate of what the program itself costs.
[[nodiscard]] std::vector<double> input_best(const std::vector<std::vector<double>>& samples);
/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();
/// While alive, moves the thread that created it round-robin over every CPU
/// the process may use, one step every `period_ms`; the destructor restores
/// the thread's CPU set. The shared host's cores differ in speed from
/// second to second, and a single-threaded measurement that stays on one
/// core reads that core's luck: moving makes every run sample every core
/// (in one comparison on paper-synth on a shared 4-vCPU host, the spread of
/// p50_ms between runs fell from 8.7% to 3.3%). Only for short
/// single-threaded calls: threads the moved thread starts would inherit its
/// one-CPU set, and a migration in the middle of a long memory-heavy call (a
/// layer-closure MILP solve) costs more than it steadies.
class CpuRotation {
 public:
  explicit CpuRotation(int period_ms = 250);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void run();

  pthread_t target_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  int period_ms_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread mover_;  // declared last: started after the members it reads
};

/// While alive, pins the thread that created it to the `index`-th CPU (mod
/// their count) the process may use; the destructor restores the thread's
/// CPU set. Repeated set-ups each pin to the next CPU, so their median
/// samples every core, as CpuRotation does for longer loops.
class PinnedThread {
 public:
  explicit PinnedThread(std::size_t index);
  ~PinnedThread();
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  cpu_set_t allowed_;
  bool pinned_ = false;
};

/// Deterministic 64-bit mix of a seed and a stream index.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
