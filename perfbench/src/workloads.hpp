// The four workloads. Each runs a fixed number of passes over its inputs,
// sized so a run lasts about RunConfig::seconds on a 4-vCPU host, sets the end-to-end metrics — setup_s,
// throughput_per_s, p50_ms, tail_ms — plus the per-workload aliases it
// prints in the table, and in the traced run sets its per-layer metrics.
// Output checks go through Report::operation / Report::check.
#pragma once

#include <algorithm>
#include <cmath>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

void run_paper_synth(const RunConfig& config, Report& report, Tracer& tracer);
void run_batch_mixed(const RunConfig& config, Report& report, Tracer& tracer);
void run_layer_closure(const RunConfig& config, Report& report, Tracer& tracer);
void run_fleet_replay(const RunConfig& config, Report& report, Tracer& tracer);

/// Percentile of the per-input latencies reported as tail_ms.
constexpr double kTail = 0.9;

/// Repetitions of a workload's unit of work for a run of `seconds`. The
/// count depends on --seconds alone, never on how fast the host is, so every
/// run takes the same number of samples: a fastest-of-n estimate (see
/// input_best) depends on n.
[[nodiscard]] inline long passes_for(double seconds, double passes_per_second,
                                     long minimum = 1) {
  return std::max(minimum, std::lround(seconds * passes_per_second));
}

/// Median of `repetitions` timed calls of `setup` (seconds), each on the
/// next CPU (see PinnedThread); the last call's products stay in place. Set-up
/// must be single-threaded.
template <typename Setup>
double timed_setup(int repetitions, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repetitions; ++i) {
    const PinnedThread pin(static_cast<std::size_t>(i));
    const Clock::time_point begin = Clock::now();
    setup();
    times.push_back(seconds_since(begin));
  }
  return median(std::move(times));
}

}  // namespace perfbench
