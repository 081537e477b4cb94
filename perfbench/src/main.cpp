// The synthesis-flow benchmark binary. One run measures one workload for a
// given time and prints a table of every metric it measured (name, value,
// unit), then, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run, --trace 1). Any failed output check makes "correct" false
// and the exit code 1.
//
// Usage: perfbench --workload <paper-synth|batch-mixed|layer-closure|fleet-replay>
//                  [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//                  [--trace-out FILE] [--expected-optima a,b,c,d]
#include <algorithm>
#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The end-to-end metrics every untraced run reports (BENCHMARK.json
/// "end_to_end"), and the per-layer metrics every traced run reports
/// (BENCHMARK.json "per_layer"); a layer a workload never reaches reads 0.
const char* const kEndToEnd[] = {"setup_s", "throughput_per_s", "p50_ms", "tail_ms",
                                 "peak_rss_mb"};

struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kPerLayer[] = {
    {"io.parse_s", "s"},
    {"analysis.lint_s", "s"},
    {"core.layering_s", "s"},
    {"schedule.layer_schedule_s", "s"},
    {"schedule.certify_s", "s"},
    {"core.synthesize_s", "s"},
    {"core.resynthesis_iterations", "count"},
    {"core.flow_other_s", "s"},
    {"core.layer_solves", "count"},
    {"core.layer_solve_s", "s"},
    {"milp.solves", "count"},
    {"core.ilp_kept", "count"},
    {"core.ilp_kept_ratio", "ratio"},
    {"milp.nodes", "count"},
    {"milp.dive_lp_solves", "count"},
    {"milp.cutoff_prunes", "count"},
    {"milp.bound_prunes", "count"},
    {"milp.solve_s", "s"},
    {"milp.nodes_par", "count"},
    {"milp.idle_s", "s"},
    {"lp.pivots", "count"},
    {"lp.refactorizations", "count"},
    {"lp.warm_solves", "count"},
    {"lp.cold_solves", "count"},
    {"lp.root_solve_s", "s"},
    {"lp.warm_resolve_s", "s"},
    {"engine.cache_hits", "count"},
    {"engine.cache_misses", "count"},
    {"engine.cache_stores", "count"},
    {"engine.cache_evictions", "count"},
    {"engine.cache_hit_rate", "ratio"},
    {"engine.worker_busy_ratio", "ratio"},
    {"sim.compile_s", "s"},
    {"sim.fleet_1w_s", "s"},
    {"sim.fleet_nw_s", "s"},
    {"sim.fleet_scaling_eff", "ratio"},
    {"sim.events", "count"},
    {"sim.wheel_posted", "count"},
    {"sim.wheel_popped", "count"},
    {"sim.wheel_pop_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <paper-synth|batch-mixed|layer-closure|"
               "fleet-replay> [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--trace-out FILE] [--expected-optima a,b,c,d]\n";
  return 2;
}

std::string json_number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  std::string trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument(arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        config.trace = value() != "0";
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--expected-optima") {
        std::istringstream list(value());
        std::string item;
        while (std::getline(list, item, ',')) {
          config.expected_optima.push_back(std::stod(item));
        }
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& error) {
    return usage(error.what());
  }
  config.workers =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  Report report;
  Tracer tracer(config.trace);
  try {
    if (workload == "paper-synth") {
      run_paper_synth(config, report, tracer);
    } else if (workload == "batch-mixed") {
      run_batch_mixed(config, report, tracer);
    } else if (workload == "layer-closure") {
      run_layer_closure(config, report, tracer);
    } else if (workload == "fleet-replay") {
      run_fleet_replay(config, report, tracer);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << workload << " aborted: " << error.what() << "\n";
    return 1;
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.set("failed_ratio",
             report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                          static_cast<double>(report.attempted())
                                    : 0.0,
             "ratio");
  report.set("workers", config.workers, "count");
  if (config.trace) {
    report.set("trace.spans", static_cast<double>(tracer.span_count()), "count");
    for (const LayerMetric& metric : kPerLayer) {
      if (report.find(metric.name) == nullptr) {
        report.set(metric.name, 0.0, metric.unit);
      }
    }
    if (!trace_out.empty() && !tracer.write_json(trace_out)) {
      report.check(false, "cannot write spans to " + trace_out);
    }
  }

  std::cout << "workload " << workload << "  seed " << config.seed << "  seconds "
            << config.seconds << "  trace " << (config.trace ? 1 : 0)
            << (config.smoke ? "  smoke" : "") << "\n";
  for (const Metric& metric : report.metrics()) {
    std::cout << "  " << std::left << std::setw(44) << metric.name << " " << std::right
              << std::setw(16) << std::setprecision(6) << metric.value << " " << metric.unit
              << "\n";
  }
  std::ostringstream metrics;
  const auto emit = [&](const std::string& name) {
    const Metric* metric = report.find(name);
    if (metric == nullptr || !std::isfinite(metric->value)) {
      report.check(false, "metric " + name + " was not measured");
      return;
    }
    metrics << (metrics.tellp() > 0 ? ", " : "") << "\"" << name << "\": {\"value\": "
            << json_number(metric->value) << ", \"unit\": \"" << metric->unit << "\"}";
  };
  if (config.trace) {
    for (const LayerMetric& metric : kPerLayer) {
      emit(metric.name);
    }
  } else {
    for (const char* name : kEndToEnd) {
      emit(name);
    }
  }
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted() << ", \"failed\": " << report.failed()
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return report.correct() ? 0 : 1;
}
