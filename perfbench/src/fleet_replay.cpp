// fleet-replay: Monte-Carlo replay of the certified schedules of the three
// Table-2 protocols under the hazard "exp:2000", through sim::run_fleet at
// 1 worker and at N workers. The schedules are synthesized, certified and
// compiled during set-up, so sim does all the measured work.
#include <algorithm>
#include <optional>
#include <sstream>
#include <string>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"
#include "sim/fleet.hpp"
#include "sim/hazard.hpp"
#include "sim/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kHazard = "exp:2000";
/// Passes per second of --seconds (a pass of 100,000-run calls takes about
/// 0.9 s on a 4-vCPU host).
constexpr double kPassesPerSecond = 1.0;

struct Case {
  std::string name;
  model::Assay assay;
  std::optional<sim::CompiledSchedule> compiled;
  model::DeviceInventory devices{1};
  sim::HazardModel hazard;
};

bool same_reduction(const sim::FleetSummary& a, const sim::FleetSummary& b) {
  return a.runs == b.runs && a.completed == b.completed &&
         a.device_failed == b.device_failed && a.attempts_exhausted == b.attempts_exhausted &&
         a.recovery_attempts == b.recovery_attempts && a.recovered == b.recovered &&
         a.recovery_success_rate == b.recovery_success_rate &&
         a.mttf_minutes == b.mttf_minutes &&
         a.mean_completion_minutes == b.mean_completion_minutes &&
         a.histogram_min == b.histogram_min && a.histogram_max == b.histogram_max &&
         a.completion_histogram == b.completion_histogram && a.events == b.events &&
         a.wheel.posted == b.wheel.posted && a.wheel.popped == b.wheel.popped &&
         a.wheel.cascaded == b.wheel.cascaded && a.wheel.overflowed == b.wheel.overflowed;
}

}  // namespace

void run_fleet_replay(const RunConfig& config, Report& report, Tracer& tracer) {
  Tracer off(false);
  std::vector<Case> cases;
  double compile_s = 0.0;
  const double setup_s = timed_setup(config.smoke ? 1 : 15, [&] {
    cases.clear();
    cases.push_back({"kinase-2", assays::kinase_activity_assay(), {}, model::DeviceInventory{1}, {}});
    cases.push_back({"gene-10", assays::gene_expression_assay(), {}, model::DeviceInventory{1}, {}});
    cases.push_back({"rtqpcr-20", assays::rt_qpcr_assay(), {}, model::DeviceInventory{1}, {}});
    compile_s = 0.0;
    for (Case& c : cases) {
      const core::SynthesisReport synthesis = core::synthesize(c.assay);
      const auto findings =
          schedule::certify_result(synthesis.result, c.assay, synthesis.transport);
      report.check(findings.empty(), c.name + ": schedule not certified");
      const Clock::time_point begin = Clock::now();
      {
        const Span span(config.trace ? tracer : off, "sim.compile_schedule");
        c.compiled.emplace(sim::compile_schedule(synthesis.result, c.assay));
      }
      compile_s += seconds_since(begin);
      c.devices = synthesis.result.devices;
      c.hazard = sim::parse_hazard_spec(kHazard, c.assay.registry());
    }
  });

  const int runs = config.smoke ? 2000 : 100000;
  std::uint64_t call = 0;
  struct PassTotals {
    double serial_s = 0.0, parallel_s = 0.0;
    std::uint64_t events = 0, posted = 0, popped = 0;
    std::vector<double> parallel_calls;
  };
  // One pass: every case at 1 worker, then at N workers with the same fleet
  // seed; the two reductions must be identical.
  const auto pass = [&](Tracer& pass_tracer) {
    PassTotals totals;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      sim::FleetOptions options;
      options.runs = runs;
      options.seed = mix_seed(config.seed, ++call);
      options.hazard = cases[i].hazard;
      sim::FleetSummary summaries[2];
      for (int side = 0; side < 2; ++side) {
        options.jobs = side == 0 ? 1 : config.workers;
        const Clock::time_point begin = Clock::now();
        {
          const Span span(pass_tracer, "sim.run_fleet", static_cast<int>(i));
          summaries[side] = sim::run_fleet(*cases[i].compiled, cases[i].devices, options);
        }
        const double seconds = seconds_since(begin);
        if (side == 0) {
          totals.serial_s += seconds;
        } else {
          totals.parallel_s += seconds;
          totals.parallel_calls.push_back(seconds);
        }
      }
      std::ostringstream what;
      what << cases[i].name << ": fleet reduction differs between 1 and " << config.workers
           << " workers (seed " << options.seed << ")";
      report.operation(summaries[0].runs == runs && same_reduction(summaries[0], summaries[1]),
                       what.str());
      totals.events += summaries[0].events;
      totals.posted += summaries[0].wheel.posted;
      totals.popped += summaries[0].wheel.popped;
    }
    return totals;
  };

  report.set("setup_s", setup_s, "s");
  if (!config.trace) {
    // A fixed number of passes. Each case's N-worker call time is its
    // fastest over the passes, and throughput the fastest pass's (see
    // input_best). The 1-worker calls are checked, not timed here: a single
    // thread on the shared host spread twice as much between runs.
    (void)pass(off);  // warm-up: worker pools, allocator
    std::vector<std::vector<double>> samples(cases.size());
    std::vector<double> throughput;
    for (long p = 0; p < passes_for(config.seconds, kPassesPerSecond); ++p) {
      const PassTotals totals = pass(off);
      for (std::size_t i = 0; i < cases.size(); ++i) {
        samples[i].push_back(totals.parallel_calls[i]);
      }
      throughput.push_back(static_cast<double>(runs) * static_cast<double>(cases.size()) /
                           totals.parallel_s);
    }
    const std::vector<double> call_s = input_best(samples);
    const double best_throughput = *std::max_element(throughput.begin(), throughput.end());
    report.set("throughput_per_s", best_throughput, "1/s");
    report.set("p50_ms", 1e3 * median(call_s), "ms");
    report.set("tail_ms", 1e3 * quantile(call_s, kTail), "ms");
    report.set("fleet_runs_per_s", best_throughput, "1/s");
    report.set("fleet_runs_per_call", runs, "count");
    report.set("fleet_passes", static_cast<double>(throughput.size()), "count");
    return;
  }

  const PassTotals traced = pass(tracer);
  report.set("sim.compile_s", compile_s, "s");
  report.set("sim.fleet_1w_s", traced.serial_s, "s");
  report.set("sim.fleet_nw_s", traced.parallel_s, "s");
  report.set("sim.fleet_scaling_eff",
             traced.serial_s / traced.parallel_s / static_cast<double>(config.workers), "ratio");
  report.set("sim.events", static_cast<double>(traced.events), "count");
  report.set("sim.wheel_posted", static_cast<double>(traced.posted), "count");
  report.set("sim.wheel_popped", static_cast<double>(traced.popped), "count");
  report.set("sim.wheel_pop_ratio",
             traced.posted > 0 ? static_cast<double>(traced.popped) /
                                     static_cast<double>(traced.posted)
                               : 0.0,
             "ratio");
  // Tracing overhead: alternating untraced and traced passes.
  std::vector<double> untraced, with_spans;
  for (int i = 0; i < 3; ++i) {
    const PassTotals a = pass(off);
    untraced.push_back(a.serial_s + a.parallel_s);
    Tracer scratch(true);
    const PassTotals b = pass(scratch);
    with_spans.push_back(b.serial_s + b.parallel_s);
  }
  report.set("trace.overhead_ratio",
             *std::min_element(with_spans.begin(), with_spans.end()) /
                     *std::min_element(untraced.begin(), untraced.end()) -
                 1.0,
             "ratio");
}

}  // namespace perfbench
