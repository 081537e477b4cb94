// Solver micro-benchmark: cold dense-tableau branch and bound (the seed
// configuration) vs the warm-started revised simplex (presolve at the root,
// dual re-solves from the parent basis at every child node). Instances are
// the actual per-layer MILPs that arise while synthesizing the Table-2
// bioassays — captured through the LayerSolveCache hook — plus random mixed
// integer programs. Every instance is solved with both configurations and
// the final objectives are required to match whenever both searches close
// (truncated searches hold exploration-order-dependent incumbents but must
// never report NoSolution); a mismatch makes the binary exit non-zero, so
// the CI smoke run doubles as a differential test.
//
// Output: a human-readable table, and (full mode) BENCH_solver.json with
// one record per (solver, instance) holding nodes, pivots and wall ms.
//
// Every captured layer model carries its combinatorial bound provider
// (core::IlpLayerModel::bound_provider) and both solver configurations
// attach it, together with the root dive and pseudocost branching — the
// production search configuration. With the configuration-cost floor cuts
// the big case-2/3 layer-0 MILPs CLOSE to proven optimality (550/548 in
// 108/119 nodes), which the full run and the --closure mode assert.
//
// Usage: bench_solver_perf [--smoke] [--closure] [--out <path>]
//   --smoke    quick differential run (CI), no JSON
//   --closure  case2/case3 layer-0 closure gate (CI Release), no JSON
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assays/benchmarks.hpp"
#include "core/ilp_layer_model.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "lp/simplex.hpp"
#include "milp/bounds.hpp"
#include "milp/branch_and_bound.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace cohls;

namespace {

using Clock = std::chrono::steady_clock;

// --- instance capture --------------------------------------------------------

/// A captured per-layer MILP plus the combinatorial node-bound provider the
/// production search attaches to it.
struct CapturedLayer {
  milp::MilpModel model;
  std::shared_ptr<const milp::NodeBoundProvider> bounds;
};

/// A LayerSolveCache that never hits: it rebuilds the layer MILP exactly as
/// synthesize_layer would (same inputs, same gate) and keeps a copy of the
/// model and its bound provider, letting synthesis proceed untouched.
class ModelRecorder final : public core::LayerSolveCache {
 public:
  explicit ModelRecorder(std::size_t cap) : cap_(cap) {}

  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext& ctx) override {
    if (models_.size() >= cap_ || !applicable(ctx)) {
      return std::nullopt;
    }
    core::IlpLayerInputs inputs;
    inputs.layer = ctx.request.layer;
    inputs.ops = ctx.request.ops;
    for (const DeviceId id : ctx.request.usable_devices) {
      inputs.fixed_devices.emplace_back(id, ctx.inventory.device(id).config);
    }
    inputs.hints = ctx.request.hints;
    // Indeterminate operations must run on pairwise-distinct devices, so a
    // layer with k of them needs at least k visible devices to be feasible.
    // Offer enough new slots to cover that (the raised-threshold engine
    // configuration this benchmark informs does the same).
    int indeterminate = 0;
    for (const OperationId id : ctx.request.ops) {
      if (ctx.assay.operation(id).indeterminate()) {
        ++indeterminate;
      }
    }
    const int base_slots = ctx.request.allow_new_devices
                               ? std::min(ctx.engine.ilp_new_slots,
                                          ctx.inventory.max_devices() - ctx.inventory.size())
                               : 0;
    inputs.new_slots = std::max(base_slots, indeterminate);
    if (static_cast<int>(inputs.fixed_devices.size() + inputs.hints.size()) +
            inputs.new_slots >
        kCaptureMaxDevices) {
      return std::nullopt;
    }
    inputs.prior_binding = ctx.request.prior_binding;
    inputs.existing_paths = ctx.request.existing_paths;
    try {
      const core::IlpLayerModel ilp(ctx.assay, std::move(inputs), ctx.transport,
                                    ctx.costs);
      models_.push_back({ilp.model(), ilp.bound_provider()});
    } catch (const std::exception&) {
      // A model we cannot build is simply not benchmarked.
    }
    return std::nullopt;
  }

  void store(const core::LayerSolveContext&, const core::LayerOutcome&) override {}

  [[nodiscard]] const std::vector<CapturedLayer>& models() const { return models_; }

 private:
  /// Mirrors the synthesize_layer gate but with a wider box (ops <= 12,
  /// devices <= 10): the point of the benchmark is to measure what the
  /// solvers sustain on layer models at and beyond the current EngineOptions
  /// thresholds, so the thresholds themselves can be set from data.
  static constexpr int kCaptureMaxOps = 12;
  static constexpr int kCaptureMaxDevices = 10;

  static bool applicable(const core::LayerSolveContext& ctx) {
    if (static_cast<int>(ctx.request.ops.size()) > kCaptureMaxOps) {
      return false;
    }
    return !ctx.request.binds && !ctx.request.new_config;
  }

  std::size_t cap_;
  std::vector<CapturedLayer> models_;
};

std::vector<CapturedLayer> capture_layer_models(const model::Assay& assay,
                                                std::size_t cap,
                                                int indeterminate_threshold = 10) {
  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = indeterminate_threshold;
  ModelRecorder recorder(cap);
  options.layer_cache = &recorder;
  (void)core::synthesize(assay, options);
  return recorder.models();
}

milp::MilpModel make_random_milp(std::uint64_t seed) {
  Rng rng{seed};
  milp::MilpModel model;
  const int n = static_cast<int>(rng.uniform_int(6, 14));
  for (int j = 0; j < n; ++j) {
    const auto shape = rng.uniform_int(0, 2);
    if (shape == 0) {
      model.add_binary(static_cast<double>(rng.uniform_int(-6, 6)));
    } else if (shape == 1) {
      const int lb = static_cast<int>(rng.uniform_int(-3, 0));
      model.add_variable(milp::VarKind::Continuous, lb, lb + rng.uniform_int(2, 8),
                         static_cast<double>(rng.uniform_int(-4, 4)));
    } else {
      const int lb = static_cast<int>(rng.uniform_int(-2, 0));
      model.add_variable(milp::VarKind::Integer, lb, lb + rng.uniform_int(1, 6),
                         static_cast<double>(rng.uniform_int(-5, 5)));
    }
  }
  const int m = static_cast<int>(rng.uniform_int(4, 10));
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform_int(0, 2) != 0) {
        continue;  // ~2/3 sparsity
      }
      const auto coef = rng.uniform_int(-3, 3);
      if (coef != 0) {
        terms.emplace_back(j, static_cast<double>(coef));
      }
    }
    const auto sense = rng.uniform_int(0, 3) == 0 ? lp::RowSense::GreaterEqual
                                                  : lp::RowSense::LessEqual;
    model.add_constraint(std::move(terms), sense,
                         static_cast<double>(rng.uniform_int(2, 12)));
  }
  return model;
}

// --- measurement -------------------------------------------------------------

struct Measurement {
  milp::MilpStatus status = milp::MilpStatus::NoSolution;
  double objective = 0.0;
  bool has_objective = false;
  bool closed = false;      ///< the search proved optimality or infeasibility
  double best_bound = 0.0;  ///< proven lower bound at exit
  double gap = 0.0;         ///< objective - best_bound when an incumbent exists
  long nodes = 0;
  long pivots = 0;
  long warm_solves = 0;
  long factor_nonzeros = 0;  ///< basis-inverse nonzeros summed over refactorizations
  long bound_prunes = 0;
  long cutoff_prunes = 0;
  long dive_lp_solves = 0;
  bool dive_found_incumbent = false;
  double wall_ms = 0.0;
};

milp::MilpOptions solver_config(bool warm_revised, long node_cap,
                                std::shared_ptr<const milp::NodeBoundProvider> bounds) {
  milp::MilpOptions options;
  // Random instances (node_cap == 0) run to completion; layer models get the
  // SAME node budget in both configurations and the SAME bound provider, so
  // the searches traverse identical trees and wall-per-node is a clean
  // comparison of the two solvers' node re-solve cost.
  options.max_nodes = node_cap > 0 ? node_cap : 2000000;
  options.time_limit_seconds = 600.0;
  options.bounds = std::move(bounds);
  if (warm_revised) {
    options.simplex = lp::SimplexAlgorithm::Revised;
    options.presolve = true;
  } else {
    // The seed configuration: dense tableau, every node solved from
    // scratch, no root presolve.
    options.simplex = lp::SimplexAlgorithm::Dense;
    options.presolve = false;
  }
  return options;
}

void fill_common(Measurement& out, const milp::MilpSolution& solution) {
  out.status = solution.status;
  out.has_objective = solution.status == milp::MilpStatus::Optimal ||
                      solution.status == milp::MilpStatus::Feasible;
  out.objective = out.has_objective ? solution.objective : 0.0;
  out.closed = solution.status == milp::MilpStatus::Optimal ||
               solution.status == milp::MilpStatus::Infeasible;
  out.best_bound = solution.best_bound;
  out.gap = out.has_objective ? solution.objective - solution.best_bound : 0.0;
  out.nodes = solution.nodes;
  out.pivots = solution.lp_pivots;
  out.warm_solves = solution.lp_warm_solves;
  out.factor_nonzeros = solution.lp_factor_nonzeros;
  out.bound_prunes = solution.bound_prunes;
  out.cutoff_prunes = solution.cutoff_prunes;
  out.dive_lp_solves = solution.dive_lp_solves;
  out.dive_found_incumbent = solution.dive_found_incumbent;
}

Measurement measure(const CapturedLayer& instance, bool warm_revised, int repetitions,
                    long node_cap) {
  const milp::MilpOptions options =
      solver_config(warm_revised, node_cap, instance.bounds);
  Measurement out;
  out.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto begin = Clock::now();
    const milp::MilpSolution solution = milp::solve_milp(instance.model, options);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
    out.wall_ms = std::min(out.wall_ms, ms);  // min over reps: least-noise estimate
    fill_common(out, solution);
  }
  return out;
}

struct InstanceRow {
  std::string name;
  int vars = 0;
  int rows = 0;
  Measurement dense;
  Measurement revised;
  bool objectives_match = false;
  double node_speedup = 0.0;  ///< dense ms/node over revised ms/node
};

InstanceRow run_instance(const std::string& name, const CapturedLayer& instance,
                         int repetitions, long node_cap) {
  InstanceRow row;
  row.name = name;
  row.vars = instance.model.variable_count();
  row.rows = instance.model.constraint_count();
  row.dense = measure(instance, /*warm_revised=*/false, repetitions, node_cap);
  row.revised = measure(instance, /*warm_revised=*/true, repetitions, node_cap);
  // Objective identity is a theorem only when BOTH searches close: root
  // presolve changes the LP fractional points, hence the dive and the
  // pseudocost history, hence the tree — two truncated searches legitimately
  // hold different incumbents. A truncated production (revised) run must
  // still hold SOME incumbent — its root dive guarantees one on feasible
  // instances — while the dense seed configuration has no dive (the dive
  // re-solves on the revised workspace) and may legitimately hold nothing
  // at a small node cap.
  const bool both_closed = row.dense.closed && row.revised.closed;
  if (both_closed) {
    row.objectives_match =
        row.dense.status == row.revised.status &&
        (!row.dense.has_objective ||
         std::abs(row.dense.objective - row.revised.objective) <= 1e-6);
  } else {
    row.objectives_match = row.revised.status != milp::MilpStatus::NoSolution;
  }
  const double dense_per_node =
      row.dense.wall_ms / static_cast<double>(std::max<long>(row.dense.nodes, 1));
  const double revised_per_node =
      row.revised.wall_ms / static_cast<double>(std::max<long>(row.revised.nodes, 1));
  row.node_speedup = revised_per_node > 0.0 ? dense_per_node / revised_per_node : 0.0;
  return row;
}

double median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

std::string json_record(const std::string& solver, const InstanceRow& row,
                        const Measurement& m) {
  std::ostringstream os;
  os << "    {\"solver\": \"" << solver << "\", \"instance\": \"" << row.name
     << "\", \"vars\": " << row.vars << ", \"rows\": " << row.rows
     << ", \"status\": \"" << milp::to_string(m.status) << "\", \"nodes\": " << m.nodes
     << ", \"pivots\": " << m.pivots << ", \"warm_solves\": " << m.warm_solves
     << ", \"factor_nonzeros\": " << m.factor_nonzeros
     << ", \"closed\": " << (m.closed ? "true" : "false")
     << ", \"objective\": " << (m.has_objective ? std::to_string(m.objective) : "null")
     << ", \"best_bound\": " << m.best_bound << ", \"proven_gap\": " << m.gap
     << ", \"bound_prunes\": " << m.bound_prunes
     << ", \"cutoff_prunes\": " << m.cutoff_prunes
     << ", \"dive_lp_solves\": " << m.dive_lp_solves
     << ", \"dive_found_incumbent\": " << (m.dive_found_incumbent ? "true" : "false")
     << ", \"wall_ms\": " << m.wall_ms << "}";
  return os.str();
}

/// The closure gate: the big Table-2 layer-0 MILPs close to proven
/// optimality at (or below) the known incumbents, in exactly the known node
/// counts (the 1-worker search is deterministic, so node drift means the LP
/// path changed).
struct ClosureGate {
  const char* instance;
  double known_incumbent;
  long expected_nodes;
  bool seen = false;
  bool ok = false;
  Measurement result{};
};

/// Solves each gated instance found in `models` with the production
/// configuration and a 5000-node cap, prints one line per gate and returns
/// whether every gate was captured and closed.
bool run_closure(std::vector<ClosureGate>& gates,
                 const std::vector<std::pair<std::string, CapturedLayer>>& models) {
  bool ok = true;
  for (ClosureGate& gate : gates) {
    for (const auto& [name, captured] : models) {
      if (name == gate.instance) {
        gate.seen = true;
        gate.result = measure(captured, /*warm_revised=*/true, /*repetitions=*/1,
                              /*node_cap=*/5000);
        gate.ok = gate.result.status == milp::MilpStatus::Optimal &&
                  gate.result.objective <= gate.known_incumbent + 1e-6 &&
                  gate.result.nodes == gate.expected_nodes;
      }
    }
    if (gate.ok) {
      std::cout << gate.instance << ": " << milp::to_string(gate.result.status)
                << " obj=" << gate.result.objective
                << " bound=" << gate.result.best_bound << " nodes=" << gate.result.nodes
                << " bound_prunes=" << gate.result.bound_prunes
                << " dive=" << (gate.result.dive_found_incumbent ? 1 : 0) << ", "
                << gate.result.wall_ms << " ms\n";
    } else {
      std::cout << "CLOSURE GATE FAILED: " << gate.instance
                << (gate.seen ? " did not close optimally at <= " +
                                    std::to_string(gate.known_incumbent) + " in " +
                                    std::to_string(gate.expected_nodes) + " nodes (" +
                                    milp::to_string(gate.result.status) + ", " +
                                    std::to_string(gate.result.nodes) + " nodes)"
                              : std::string(" was not captured"))
                << "\n";
      ok = false;
    }
  }
  return ok;
}

std::vector<ClosureGate> closure_gates() {
  return {{"case2-layer-0", 550.0, 108}, {"case3-layer-0", 548.0, 119}};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool closure_only = false;
  std::string out_path = "BENCH_solver.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--closure") {
      closure_only = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_solver_perf [--smoke] [--closure] [--out <path>]\n";
      return 2;
    }
  }

  if (closure_only) {
    // CI Release closure gate: the big Table-2 layer-0 MILPs (the full
    // 10-indeterminate-op layers) must close to proven optimality at or
    // below the known incumbents, in the known node counts.
    std::vector<std::pair<std::string, CapturedLayer>> models;
    const auto capture_layer_0 = [&models](const char* name, const model::Assay& assay) {
      for (const CapturedLayer& captured : capture_layer_models(assay, 1)) {
        models.emplace_back(name, captured);
      }
    };
    capture_layer_0("case2-layer-0", assays::gene_expression_assay());
    capture_layer_0("case3-layer-0", assays::rt_qpcr_assay());
    std::vector<ClosureGate> gates = closure_gates();
    const bool ok = run_closure(gates, models);
    std::cout << (ok ? "closure gate passed: case2/case3 layer-0 proven optimal\n"
                     : "closure gate FAILED\n");
    return ok ? 0 : 1;
  }

  const int repetitions = smoke ? 1 : 3;
  const std::size_t cap_per_case = smoke ? 1 : 3;
  const int random_count = smoke ? 6 : 30;
  // Equal node budget for the Table-2 layer differential rows. The budget
  // stays modest because the dense seed pays ~0.5 s per node on the big
  // layer-0 models; closure of those models is asserted by the closure
  // gate below (production configuration, generous cap), not here.
  const long layer_node_cap = smoke ? 25 : 120;

  std::cout << "=== Solver performance: dense cold vs revised warm-started B&B ===\n";
  std::cout << "(instances: Table-2 per-layer MILPs + random MIPs; "
            << (smoke ? "smoke" : "full") << " mode)\n\n";

  struct CaseSpec {
    const char* tag;
    model::Assay assay;
  };
  std::vector<CaseSpec> cases;
  cases.push_back({"case1", assays::kinase_activity_assay()});
  if (!smoke) {
    cases.push_back({"case2", assays::gene_expression_assay()});
    cases.push_back({"case3", assays::rt_qpcr_assay()});
  } else {
    cases.push_back({"case2", assays::gene_expression_assay()});
  }

  std::vector<InstanceRow> rows;
  std::vector<double> table2_speedups;  // case 2/3 only: the acceptance metric
  // Case-2/3 layer models are kept for the closure gate below.
  std::vector<std::pair<std::string, CapturedLayer>> table2_models;
  for (const CaseSpec& spec : cases) {
    const auto models = capture_layer_models(spec.assay, cap_per_case);
    std::cout << spec.tag << ": captured " << models.size() << " layer MILPs\n";
    int index = 0;
    for (const CapturedLayer& captured : models) {
      std::ostringstream name;
      name << spec.tag << "-layer-" << index++;
      rows.push_back(run_instance(name.str(), captured, 1, layer_node_cap));
      if (spec.tag != std::string("case1")) {
        table2_speedups.push_back(rows.back().node_speedup);
        table2_models.emplace_back(name.str(), captured);
      }
    }
  }
  for (int i = 0; i < random_count; ++i) {
    std::ostringstream name;
    name << "rand-" << i;
    rows.push_back(run_instance(name.str(),
                                CapturedLayer{make_random_milp(
                                                  static_cast<std::uint64_t>(i) *
                                                      6364136223846793005ULL +
                                                  1442695040888963407ULL),
                                              nullptr},
                                repetitions, /*node_cap=*/0));
  }

  TextTable table({"Instance", "Size", "Status", "Nodes d/r", "Pivots d/r", "ms d/r",
                   "ms/node d/r", "Speedup", "Obj match"});
  bool all_match = true;
  for (const InstanceRow& row : rows) {
    all_match = all_match && row.objectives_match;
    std::ostringstream size, nodes, pivots, ms, per_node, speedup;
    size << row.vars << "x" << row.rows;
    nodes << row.dense.nodes << "/" << row.revised.nodes;
    pivots << row.dense.pivots << "/" << row.revised.pivots;
    ms.precision(3);
    ms << std::fixed << row.dense.wall_ms << "/" << row.revised.wall_ms;
    per_node.precision(4);
    per_node << std::fixed
             << row.dense.wall_ms / std::max<double>(1.0, static_cast<double>(row.dense.nodes))
             << "/"
             << row.revised.wall_ms /
                    std::max<double>(1.0, static_cast<double>(row.revised.nodes));
    speedup.precision(2);
    speedup << std::fixed << row.node_speedup << "x";
    table.add_row({row.name, size.str(), milp::to_string(row.revised.status), nodes.str(),
                   pivots.str(), ms.str(), per_node.str(), speedup.str(),
                   row.objectives_match ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::vector<double> all_speedups;
  for (const InstanceRow& row : rows) {
    all_speedups.push_back(row.node_speedup);
  }
  const double table2_median = median(table2_speedups);
  const double overall_median = median(all_speedups);
  std::cout << "\nmedian node re-solve speedup (Table-2 case 2/3 layer models): "
            << table2_median << "x\n";
  std::cout << "median node re-solve speedup (all instances): " << overall_median
            << "x\n";
  std::cout << "objectives: " << (all_match ? "all configurations agree" : "MISMATCH")
            << "\n";

  // Satellite of the revised-simplex PR: the tiny-instance regression is
  // fixed by the tiny-model cold-solve fallback, so the all-instances median must not
  // dip below parity again.
  const bool overall_ok = smoke || overall_median >= 1.0;
  if (!overall_ok) {
    std::cout << "REGRESSION: all-instances median node speedup " << overall_median
              << " < 1.0\n";
  }

  std::vector<ClosureGate> gates = closure_gates();
  bool closure_ok = smoke;
  if (!smoke) {
    std::cout << "\n=== Closure gate: revised warm B&B, 1 worker ===\n";
    closure_ok = run_closure(gates, table2_models);
  }

  if (!smoke) {
    std::ofstream out(out_path);
    out << "{\n  \"benchmark\": \"bench_solver_perf\",\n";
    out << "  \"solvers\": {\"dense-cold\": \"seed dense tableau, cold per node, no presolve\", "
           "\"revised-warm\": \"sparse revised simplex, root presolve, warm dual re-solves\"},\n";
    out << "  \"median_node_speedup_table2_case23\": " << table2_median << ",\n";
    out << "  \"median_node_speedup_all\": " << overall_median << ",\n";
    out << "  \"objectives_match\": " << (all_match ? "true" : "false") << ",\n";
    out << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
    out << "  \"closure\": [";
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const ClosureGate& gate = gates[g];
      out << (g > 0 ? ", " : "") << "{\"instance\": \"" << gate.instance
          << "\", \"known_incumbent\": " << gate.known_incumbent
          << ", \"closed\": " << (gate.ok ? "true" : "false")
          << ", \"nodes\": " << gate.result.nodes
          << ", \"expected_nodes\": " << gate.expected_nodes
          << ", \"dive_lp_solves\": " << gate.result.dive_lp_solves
          << ", \"factor_nonzeros\": " << gate.result.factor_nonzeros
          << ", \"wall_ms\": " << gate.result.wall_ms << "}";
    }
    out << "],\n";
    out << "  \"records\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << json_record("dense-cold", rows[i], rows[i].dense) << ",\n";
      out << json_record("revised-warm", rows[i], rows[i].revised)
          << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }

  return all_match && overall_ok && closure_ok ? 0 : 1;
}
