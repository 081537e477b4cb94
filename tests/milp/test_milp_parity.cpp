// End-to-end parity of branch and bound across its solver configurations:
// warm-started revised simplex vs the dense tableau, with root presolve on
// and off. All four must agree on status and optimal objective — the warm
// dual re-solves and the reduced-space search are pure accelerations.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "util/rng.hpp"

namespace cohls::milp {
namespace {

MilpModel make_random_milp(std::uint64_t seed) {
  Rng rng{seed};
  MilpModel model;
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  for (int j = 0; j < n; ++j) {
    const auto shape = rng.uniform_int(0, 3);
    if (shape == 0) {
      model.add_binary(static_cast<double>(rng.uniform_int(-5, 5)));
    } else if (shape == 1) {
      const int lb = static_cast<int>(rng.uniform_int(-3, 1));
      model.add_variable(VarKind::Continuous, lb, lb + rng.uniform_int(1, 6),
                         static_cast<double>(rng.uniform_int(-4, 4)));
    } else {
      const int lb = static_cast<int>(rng.uniform_int(-2, 1));
      model.add_variable(VarKind::Integer, lb, lb + rng.uniform_int(0, 5),
                         static_cast<double>(rng.uniform_int(-5, 5)));
    }
  }
  const int m = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      const auto coef = rng.uniform_int(-3, 3);
      if (coef != 0) {
        terms.emplace_back(j, static_cast<double>(coef));
      }
    }
    const auto sense_draw = rng.uniform_int(0, 2);
    const auto sense = sense_draw == 0   ? lp::RowSense::LessEqual
                       : sense_draw == 1 ? lp::RowSense::GreaterEqual
                                         : lp::RowSense::Equal;
    model.add_constraint(std::move(terms), sense,
                         static_cast<double>(rng.uniform_int(-8, 8)));
  }
  return model;
}

MilpOptions make_options(lp::SimplexAlgorithm algorithm, bool presolve) {
  MilpOptions options;
  options.simplex = algorithm;
  options.presolve = presolve;
  // The random instances here are tiny; disable the cold-solve fallback so
  // the Revised configurations genuinely exercise the revised solver.
  options.cold_solve_threshold = 0;
  return options;
}

class MilpSolverParity : public ::testing::TestWithParam<int> {};

TEST_P(MilpSolverParity, AllConfigurationsAgree) {
  const MilpModel model =
      make_random_milp(static_cast<std::uint64_t>(GetParam()) * 48271 + 7);
  const std::array<MilpOptions, 4> configs = {
      make_options(lp::SimplexAlgorithm::Revised, true),
      make_options(lp::SimplexAlgorithm::Revised, false),
      make_options(lp::SimplexAlgorithm::Dense, true),
      make_options(lp::SimplexAlgorithm::Dense, false),
  };
  const MilpSolution reference = solve_milp(model, configs[0]);
  for (std::size_t i = 1; i < configs.size(); ++i) {
    const MilpSolution sol = solve_milp(model, configs[i]);
    ASSERT_EQ(sol.status, reference.status)
        << "config " << i << ": " << to_string(sol.status) << " vs "
        << to_string(reference.status);
    if (reference.status == MilpStatus::Optimal) {
      EXPECT_NEAR(sol.objective, reference.objective, 1e-6) << "config " << i;
      EXPECT_TRUE(model.is_feasible(sol.values, 1e-5)) << "config " << i;
    }
  }
  if (reference.status == MilpStatus::Optimal) {
    EXPECT_TRUE(model.is_feasible(reference.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpSolverParity, ::testing::Range(0, 200));

TEST(MilpSolverStats, WarmSolvesDominateOnBranchyInstances) {
  // Identical weight-2 items against an odd capacity force a fractional
  // relaxation at every level, so the search must branch repeatedly; every
  // child node should warm-start off its parent's basis.
  MilpModel m;
  std::vector<lp::Term> row;
  for (int i = 0; i < 10; ++i) {
    row.emplace_back(m.add_binary(-1.0 - 0.01 * i), 2.0);
  }
  m.add_constraint(std::move(row), lp::RowSense::LessEqual, 7.0);
  MilpOptions options;
  options.cold_solve_threshold = 0;  // small on purpose; still wants revised
  const MilpSolution sol = solve_milp(m, options);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, -3.0 - 0.01 * (9 + 8 + 7), 1e-6);
  EXPECT_GT(sol.nodes, 1);
  EXPECT_EQ(sol.lp_cold_solves, 1);  // only the root solves from scratch
  EXPECT_GE(sol.lp_warm_solves, sol.nodes - 1);
  EXPECT_GT(sol.lp_pivots, 0);
}

TEST(MilpSolverStats, DenseAlgorithmCountsColdSolves) {
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 10, -1.0);
  m.add_constraint({{x, 2.0}}, lp::RowSense::LessEqual, 5.0);
  MilpOptions options = make_options(lp::SimplexAlgorithm::Dense, false);
  const MilpSolution sol = solve_milp(m, options);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, -2.0, 1e-6);
  EXPECT_EQ(sol.lp_warm_solves, 0);
  EXPECT_EQ(sol.lp_cold_solves, sol.nodes);
}

TEST(MilpPresolve, FullyFixedModelRestoresSolution) {
  // Every column pinned by singleton equalities: presolve empties the model
  // and the solver must still report the restored incumbent.
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 10, 2.0);
  const auto y = m.add_variable(VarKind::Continuous, 0, 10, 1.0);
  m.add_constraint({{x, 1.0}}, lp::RowSense::Equal, 4.0);
  m.add_constraint({{y, 2.0}}, lp::RowSense::Equal, 3.0);
  const MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.values[x], 4.0, 1e-9);
  EXPECT_NEAR(sol.values[y], 1.5, 1e-9);
  EXPECT_NEAR(sol.objective, 9.5, 1e-9);
  EXPECT_NEAR(sol.best_bound, 9.5, 1e-9);
}

TEST(MilpPresolve, IntegerFixedToFractionIsInfeasible) {
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 10, 1.0);
  m.add_constraint({{x, 2.0}}, lp::RowSense::Equal, 5.0);  // x = 2.5
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Infeasible);
  // The dense/no-presolve configuration must agree.
  EXPECT_EQ(solve_milp(m, make_options(lp::SimplexAlgorithm::Dense, false)).status,
            MilpStatus::Infeasible);
}

}  // namespace
}  // namespace cohls::milp
