// End-to-end parity of the two LP engines through the full synthesis flow:
// the ablation-D random-assay setup (small single-layer assays the exact
// engine can close) must produce the same final objective whether the MILP
// runs on the warm-started revised simplex or on the seed dense tableau.
#include <gtest/gtest.h>

#include "assays/random_assay.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "schedule/validate.hpp"

namespace cohls::core {
namespace {

/// Accumulates the LP counters run_pass reports per layer solve.
class CountingObserver final : public SolveObserver {
 public:
  void on_layer_solve(const LayerSolveEvent& event) override {
    if (event.used_ilp) {
      ++ilp_layers;
    }
    warm_solves += event.lp_warm_solves;
    cold_solves += event.lp_cold_solves;
    pivots += event.lp_pivots;
  }

  int ilp_layers = 0;
  long warm_solves = 0;
  long cold_solves = 0;
  long pivots = 0;
};

SynthesisOptions ablation_d_options(lp::SimplexAlgorithm algorithm, bool presolve,
                                    SolveObserver* observer) {
  SynthesisOptions options;
  options.max_devices = 4;
  options.engine.enable_ilp = true;
  options.engine.ilp_max_ops = 6;
  options.engine.ilp_max_devices = 6;
  options.engine.ilp_new_slots = 2;
  // Node budget instead of wall clock so both configurations are
  // deterministic regardless of machine load.
  options.engine.milp.time_limit_seconds = 0.0;
  options.engine.milp.max_nodes = 20000;
  options.engine.milp.simplex = algorithm;
  options.engine.milp.presolve = presolve;
  options.max_resynthesis_iterations = 1;
  options.observer = observer;
  return options;
}

TEST(SolverParity, RevisedAndDenseAgreeOnAblationDAssays) {
  assays::RandomAssayOptions gen;
  gen.operations = 4;
  gen.indeterminate_probability = 0.0;
  gen.max_parents = 2;

  int revised_ilp_layers = 0;
  int dense_ilp_layers = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const model::Assay assay = assays::random_assay(seed * 101, gen);

    CountingObserver revised_stats;
    const SynthesisReport revised = synthesize(
        assay, ablation_d_options(lp::SimplexAlgorithm::Revised, true, &revised_stats));

    CountingObserver dense_stats;
    const SynthesisReport dense = synthesize(
        assay, ablation_d_options(lp::SimplexAlgorithm::Dense, false, &dense_stats));

    const auto revised_violations =
        schedule::certify_result(revised.result, assay, revised.transport);
    ASSERT_TRUE(revised_violations.empty())
        << "seed " << seed << ": " << diag::summary_line(revised_violations.front());
    const auto dense_violations =
        schedule::certify_result(dense.result, assay, dense.transport);
    ASSERT_TRUE(dense_violations.empty())
        << "seed " << seed << ": " << diag::summary_line(dense_violations.front());

    const double revised_objective =
        revised.iterations.back().objective.weighted_total;
    const double dense_objective = dense.iterations.back().objective.weighted_total;
    EXPECT_NEAR(revised_objective, dense_objective, 1e-6) << "seed " << seed;

    // Both configurations must actually exercise their engine: the MILP
    // has to run on these layers (pivots accumulate even when the
    // heuristic candidate ends up winning the layer), warm dual re-solves
    // only on the revised path, cold solves only on the dense path.
    EXPECT_GT(revised_stats.pivots, 0) << "seed " << seed;
    EXPECT_GT(dense_stats.pivots, 0) << "seed " << seed;
    EXPECT_EQ(dense_stats.warm_solves, 0) << "seed " << seed;
    EXPECT_GT(dense_stats.cold_solves, 0) << "seed " << seed;
    revised_ilp_layers += revised_stats.ilp_layers;
    dense_ilp_layers += dense_stats.ilp_layers;
  }
  // Across the seed set the exact candidate must win some layers under
  // both engines — otherwise the parity above would be vacuous.
  EXPECT_GT(revised_ilp_layers, 0);
  EXPECT_GT(dense_ilp_layers, 0);
}

}  // namespace
}  // namespace cohls::core
