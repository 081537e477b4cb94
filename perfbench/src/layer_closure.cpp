// layer-closure: the paper's per-layer ILP on the paper's layers. The
// layer-0 MILPs of Table-2 cases 2 and 3 are captured at layer thresholds
// t=10 and t=5 through the public core::LayerSolveCache hook and
// core::IlpLayerModel, then each is solved to proven optimality with
// milp::solve_milp at 1 worker and at N workers. No heuristic or sim work
// runs inside the measured region.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "assays/benchmarks.hpp"
#include "core/ilp_layer_model.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Instance {
  std::string name;
  milp::MilpModel model;
  std::shared_ptr<const milp::NodeBoundProvider> bounds;
  double expected_optimum = 0.0;
  long expected_nodes_1w = 0;  ///< the 1-worker search is deterministic
};

/// Builds the MILP of the first layer the flow offers it, exactly as the
/// flow would (same inputs), but with a box wide enough for the paper's
/// 10-capture layers and enough new device slots for every indeterminate
/// operation to get its own device. Never answers, so synthesis proceeds
/// untouched.
class FirstLayerRecorder final : public core::LayerSolveCache {
 public:
  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext& context) override {
    if (captured_ || context.request.ops.size() > 12 || context.request.binds ||
        context.request.new_config) {
      return std::nullopt;
    }
    core::IlpLayerInputs inputs;
    inputs.layer = context.request.layer;
    inputs.ops = context.request.ops;
    for (const DeviceId id : context.request.usable_devices) {
      inputs.fixed_devices.emplace_back(id, context.inventory.device(id).config);
    }
    inputs.hints = context.request.hints;
    int indeterminate = 0;
    for (const OperationId id : context.request.ops) {
      indeterminate += context.assay.operation(id).indeterminate() ? 1 : 0;
    }
    const int free_slots = context.inventory.max_devices() - context.inventory.size();
    inputs.new_slots = std::max(
        context.request.allow_new_devices ? std::min(context.engine.ilp_new_slots, free_slots)
                                          : 0,
        indeterminate);
    inputs.prior_binding = context.request.prior_binding;
    inputs.existing_paths = context.request.existing_paths;
    const core::IlpLayerModel ilp(context.assay, std::move(inputs), context.transport,
                                  context.costs);
    model_ = ilp.model();
    bounds_ = ilp.bound_provider();
    captured_ = true;
    return std::nullopt;
  }
  void store(const core::LayerSolveContext&, const core::LayerOutcome&) override {}

  [[nodiscard]] bool captured() const { return captured_; }
  milp::MilpModel model_;
  std::shared_ptr<const milp::NodeBoundProvider> bounds_;

 private:
  bool captured_ = false;
};

Instance capture(const std::string& name, const model::Assay& assay, int threshold,
                 double optimum, long nodes) {
  core::SynthesisOptions options;
  options.layering.indeterminate_threshold = threshold;
  FirstLayerRecorder recorder;
  options.layer_cache = &recorder;
  (void)core::synthesize(assay, options);
  if (!recorder.captured()) {
    throw std::runtime_error(name + ": no layer MILP captured");
  }
  return {name, std::move(recorder.model_), std::move(recorder.bounds_), optimum, nodes};
}

milp::MilpOptions closure_options(const Instance& instance, int workers) {
  milp::MilpOptions options;  // revised simplex, presolve, dive, pseudocosts
  options.max_nodes = 5000;
  options.time_limit_seconds = 600.0;
  options.bounds = instance.bounds;
  options.threads = workers;
  return options;
}

struct Solve {
  milp::MilpSolution solution;
  double seconds = 0.0;
};

/// Search and LP work of one pass: 1-worker solves, plus the N-worker
/// solves' node and idle totals.
struct MilpCounters {
  long solves = 0, nodes = 0, dive_lp_solves = 0, cutoff_prunes = 0, bound_prunes = 0;
  long pivots = 0, refactorizations = 0, warm_solves = 0, cold_solves = 0, nodes_par = 0;
  double solve_s = 0.0, idle_s = 0.0;

  void add(const milp::MilpSolution& one, const milp::MilpSolution& many, double one_s) {
    solves += 2;
    nodes += one.nodes;
    dive_lp_solves += one.dive_lp_solves;
    cutoff_prunes += one.cutoff_prunes;
    bound_prunes += one.bound_prunes;
    pivots += one.lp_pivots;
    refactorizations += one.lp_refactorizations;
    warm_solves += one.lp_warm_solves;
    cold_solves += one.lp_cold_solves;
    solve_s += one_s;
    nodes_par += many.nodes;
    idle_s += many.worker_idle_seconds;
  }

  void report(Report& out) const {
    out.set("milp.solves", static_cast<double>(solves), "count");
    out.set("milp.nodes", static_cast<double>(nodes), "count");
    out.set("milp.dive_lp_solves", static_cast<double>(dive_lp_solves), "count");
    out.set("milp.cutoff_prunes", static_cast<double>(cutoff_prunes), "count");
    out.set("milp.bound_prunes", static_cast<double>(bound_prunes), "count");
    out.set("milp.solve_s", solve_s, "s");
    out.set("milp.nodes_par", static_cast<double>(nodes_par), "count");
    out.set("milp.idle_s", idle_s, "s");
    out.set("lp.pivots", static_cast<double>(pivots), "count");
    out.set("lp.refactorizations", static_cast<double>(refactorizations), "count");
    out.set("lp.warm_solves", static_cast<double>(warm_solves), "count");
    out.set("lp.cold_solves", static_cast<double>(cold_solves), "count");
  }
};

Solve timed_solve(const Instance& instance, int workers, Tracer& tracer, int job) {
  const Span span(tracer, "milp.solve_milp", job);
  const Clock::time_point begin = Clock::now();
  Solve out{milp::solve_milp(instance.model, closure_options(instance, workers)), 0.0};
  out.seconds = seconds_since(begin);
  return out;
}

}  // namespace

void run_layer_closure(const RunConfig& config, Report& report, Tracer& tracer) {
  // Proven optima and 1-worker node counts of the captured instances.
  std::vector<double> optima{550.0, 548.0, 280.0, 278.0};
  if (!config.expected_optima.empty()) {
    optima = config.expected_optima;
  }
  if (optima.size() != 4) {
    throw std::invalid_argument("--expected-optima takes 4 values");
  }
  const long nodes_1w[4] = {108, 119, 31, 30};
  std::vector<Instance> instances;
  const double setup_s = timed_setup(config.smoke ? 1 : 5, [&] {
    instances.clear();
    const model::Assay gene = assays::gene_expression_assay();
    const model::Assay rt = assays::rt_qpcr_assay();
    if (!config.smoke) {
      instances.push_back(capture("case2-t10-layer0", gene, 10, optima[0], nodes_1w[0]));
      instances.push_back(capture("case3-t10-layer0", rt, 10, optima[1], nodes_1w[1]));
    }
    instances.push_back(capture("case2-t5-layer0", gene, 5, optima[2], nodes_1w[2]));
    instances.push_back(capture("case3-t5-layer0", rt, 5, optima[3], nodes_1w[3]));
  });
  for (const Instance& instance : instances) {
    report.set("milp.vars[" + instance.name + "]", instance.model.variable_count(), "count");
    report.set("milp.rows[" + instance.name + "]", instance.model.constraint_count(), "count");
  }
  // The instances are the paper's; the seed picks only the traced run's
  // bound change.
  Rng rng{mix_seed(config.seed, 1)};

  const auto check = [&](const Instance& instance, const Solve& solve, int workers) {
    const milp::MilpSolution& s = solve.solution;
    std::ostringstream what;
    what << instance.name << " at " << workers << " worker(s): " << milp::to_string(s.status)
         << " objective " << s.objective << " (expected Optimal " << instance.expected_optimum
         << "), " << s.nodes << " nodes";
    bool ok = s.status == milp::MilpStatus::Optimal &&
              std::abs(s.objective - instance.expected_optimum) <= 1e-6;
    if (workers == 1 && instance.expected_nodes_1w > 0) {
      ok = ok && s.nodes == instance.expected_nodes_1w;
      what << " (expected " << instance.expected_nodes_1w << " nodes)";
    }
    report.operation(ok, what.str());
  };

  // One pass, whatever --seconds says: the t=10 instances take about 11 s
  // each per worker count on a 4-vCPU host.
  Tracer off(false);
  Tracer& pass_tracer = config.trace ? tracer : off;
  std::vector<double> serial;
  MilpCounters counters;
  double serial_sum = 0.0, parallel_sum = 0.0, objective_sum = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    const Solve one = timed_solve(instance, 1, pass_tracer, static_cast<int>(i));
    check(instance, one, 1);
    const Solve many = timed_solve(instance, config.workers, pass_tracer, static_cast<int>(i));
    check(instance, many, config.workers);
    counters.add(one.solution, many.solution, one.seconds);
    serial.push_back(one.seconds);
    serial_sum += one.seconds;
    parallel_sum += many.seconds;
    objective_sum += instance.expected_optimum;
    report.set("milp.nodes_1w[" + instance.name + "]", static_cast<double>(one.solution.nodes),
               "count");
    report.set("time_to_optimal_s[" + instance.name + "]", one.seconds, "s");
    report.set("time_to_optimal_par_s[" + instance.name + "]", many.seconds, "s");
  }

  report.set("setup_s", setup_s, "s");
  report.set("throughput_per_s", static_cast<double>(instances.size()) / parallel_sum, "1/s");
  report.set("p50_ms", 1e3 * median(serial), "ms");
  report.set("tail_ms", 1e3 * quantile(serial, kTail), "ms");
  report.set("time_to_optimal_s", serial_sum, "s");
  report.set("time_to_optimal_par_s", parallel_sum, "s");
  report.set("objective_sum", objective_sum, "cost");

  if (!config.trace) {
    return;
  }
  counters.report(report);
  // LP layer: a cold revised-simplex solve of each model's relaxation, and
  // a warm dual re-solve from its optimal basis after one seeded bound
  // change on an integer column.
  double root_s = 0.0, warm_s = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const milp::MilpModel& model = instances[i].model;
    lp::RevisedSimplex simplex(model.lp());
    Clock::time_point t0 = Clock::now();
    lp::LpSolution root;
    {
      const Span span(tracer, "lp.root_solve", static_cast<int>(i));
      root = simplex.solve();
    }
    root_s += seconds_since(t0);
    report.check(root.status == lp::LpStatus::Optimal,
                 instances[i].name + ": root relaxation not optimal");
    std::vector<lp::Col> integer_columns;
    for (lp::Col c = 0; c < model.variable_count(); ++c) {
      if (model.is_integer(c)) {
        integer_columns.push_back(c);
      }
    }
    const lp::Col col = integer_columns[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(integer_columns.size()) - 1))];
    const double value = root.values[static_cast<std::size_t>(col)];
    const double lower = model.lp().lower_bound(col), upper = model.lp().upper_bound(col);
    if (value - lower >= 0.5) {
      simplex.set_bounds(col, lower, std::max(lower, std::ceil(value) - 1.0));
    } else {
      simplex.set_bounds(col, std::min(upper, std::floor(value) + 1.0), upper);
    }
    const lp::Basis basis = simplex.basis();
    t0 = Clock::now();
    {
      const Span span(tracer, "lp.warm_resolve", static_cast<int>(i));
      (void)simplex.solve_from(basis);
    }
    warm_s += seconds_since(t0);
  }
  report.set("lp.root_solve_s", root_s, "s");
  report.set("lp.warm_resolve_s", warm_s, "s");

  // Tracing overhead: the t=5 instances at 1 worker, alternately untraced
  // and traced, each at its fastest repetition (see input_best).
  std::vector<std::vector<double>> untraced, traced;
  for (const Instance& instance : instances) {
    if (instance.name.find("-t5-") == std::string::npos) {
      continue;
    }
    untraced.emplace_back();
    traced.emplace_back();
    for (int rep = 0; rep < 5; ++rep) {
      untraced.back().push_back(timed_solve(instance, 1, off, -1).seconds);
      Tracer scratch(true);
      traced.back().push_back(timed_solve(instance, 1, scratch, -1).seconds);
    }
  }
  double untraced_s = 0.0, traced_s = 0.0;
  for (const double s : input_best(untraced)) {
    untraced_s += s;
  }
  for (const double s : input_best(traced)) {
    traced_s += s;
  }
  report.set("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
}

}  // namespace perfbench
