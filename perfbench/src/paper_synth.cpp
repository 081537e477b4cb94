// paper-synth: a single client runs synthesis jobs back to back over the
// Table-2 protocols and their replicas, as cohls_synth would, with default
// options. The size gate keeps the MILP off every layer here, so this
// workload isolates the heuristic flow.
#include <algorithm>
#include <string>

#include "inputs.hpp"
#include "synth_job.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Passes over the job list per second of --seconds (a pass takes about
/// 40 ms on a 4-vCPU host).
constexpr double kPassesPerSecond = 25.0;

}  // namespace

void run_paper_synth(const RunConfig& config, Report& report, Tracer& tracer) {
  // Set-up: generate the inputs and run every job once (untimed by the
  // job metrics). The warm-up fixes each job's objective, which every timed
  // pass must reproduce, and counts layer solves through the public hooks.
  const core::SynthesisOptions options;
  std::vector<SynthJob> jobs;
  std::vector<double> objectives;
  double objective_sum = 0.0;
  long milp_solves = 0;
  Tracer off(false);
  const double setup_s = timed_setup(config.smoke ? 1 : 5, [&] {
    jobs = paper_synth_jobs(config.seed, config.smoke);
    LayerHooks counting(off, nullptr);
    objectives.clear();
    objective_sum = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobResult result =
          run_synth_job(jobs[i], options, off, static_cast<int>(i), &counting);
      report.check(result.ok, result.error);
      objectives.push_back(result.objective);
      objective_sum += result.objective;
    }
    milp_solves = counting.counters().milp_solves;
  });
  report.check(milp_solves == 0,
               "paper-synth: the size gate should keep the MILP off every layer, but " +
                   std::to_string(milp_solves) + " layer solves ran it");

  // One pass over the job list; returns its summed job time and, when
  // asked, appends each job's latency to its sample list.
  long iterations = 0;  // re-synthesis iterations of the last pass
  const auto pass = [&](Tracer& pass_tracer, LayerHooks* hooks,
                        std::vector<std::vector<double>>* samples) {
    double total = 0.0;
    iterations = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobResult result =
          run_synth_job(jobs[i], options, pass_tracer, static_cast<int>(i), hooks);
      report.operation(result.ok && result.objective == objectives[i],
                       result.ok ? jobs[i].name + ": objective changed between passes"
                                 : result.error);
      total += result.seconds;
      iterations += result.resynthesis_iterations;
      if (samples != nullptr) {
        (*samples)[i].push_back(result.seconds);
      }
    }
    return total;
  };

  report.set("setup_s", setup_s, "s");
  report.set("objective_sum", objective_sum, "cost");
  if (!config.trace) {
    // Closed loop over the job list. Each job's latency is its fastest
    // repetition (see input_best); the metrics describe that job mix.
    std::vector<std::vector<double>> samples(jobs.size());
    {
      const CpuRotation rotation;
      for (long i = 0; i < passes_for(config.seconds, kPassesPerSecond); ++i) {
        (void)pass(off, nullptr, &samples);
      }
    }
    const std::vector<double> latency = input_best(samples);
    double pass_s = 0.0;
    for (const double seconds : latency) {
      pass_s += seconds;
    }
    const double throughput = static_cast<double>(jobs.size()) / pass_s;
    report.set("throughput_per_s", throughput, "1/s");
    report.set("p50_ms", 1e3 * median(latency), "ms");
    report.set("tail_ms", 1e3 * quantile(latency, kTail), "ms");
    report.set("synth_jobs_per_s", throughput, "1/s");
    report.set("synth_p50_ms", 1e3 * median(latency), "ms");
    report.set("synth_tail_ms", 1e3 * quantile(latency, kTail), "ms");
    report.set("synth_passes", static_cast<double>(samples.front().size()), "count");
    return;
  }
  // Per-layer numbers come from one traced pass over the job list; the
  // tracing overhead from alternating untraced and traced passes.
  LayerHooks hooks(tracer, nullptr);
  std::vector<double> traced{pass(tracer, &hooks, nullptr)};
  const long traced_iterations = iterations;
  std::vector<double> untraced{pass(off, nullptr, nullptr)};
  for (int i = 0; i < 10; ++i) {
    Tracer scratch(true);
    LayerHooks scratch_hooks(scratch, nullptr);
    traced.push_back(pass(scratch, &scratch_hooks, nullptr));
    untraced.push_back(pass(off, nullptr, nullptr));
  }
  report_job_layers(report, tracer, hooks.counters(), traced_iterations);
  report.set("trace.overhead_ratio",
             *std::min_element(traced.begin(), traced.end()) /
                     *std::min_element(untraced.begin(), untraced.end()) -
                 1.0,
             "ratio");
}

}  // namespace perfbench
