// MilpOptions::threads is accepted and ignored: branch and bound is one
// sequential depth-first loop, so any worker count returns exactly what one
// worker returns — same status, objective, incumbent vector and node count.
#include <gtest/gtest.h>

#include <vector>

#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "util/rng.hpp"

namespace cohls::milp {
namespace {

/// Random bounded MILPs in the same family as test_milp_parity.cpp, sized up
/// so most of them branch.
MilpModel make_random_milp(std::uint64_t seed) {
  Rng rng{seed};
  MilpModel model;
  const int n = static_cast<int>(rng.uniform_int(4, 12));
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
  const int m = static_cast<int>(rng.uniform_int(1, 8));
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
                         static_cast<double>(rng.uniform_int(-10, 10)));
  }
  return model;
}

MilpOptions thread_options(int threads) {
  MilpOptions options;
  options.threads = threads;
  options.time_limit_seconds = 0.0;  // node budgets only: deterministic work
  options.cold_solve_threshold = 0;  // exercise the revised path regardless of size
  return options;
}

class MilpParallelParity : public ::testing::TestWithParam<int> {};

TEST_P(MilpParallelParity, FourWorkersAgreeWithSequential) {
  const MilpModel model =
      make_random_milp(static_cast<std::uint64_t>(GetParam()) * 69621 + 11);
  const MilpSolution seq = solve_milp(model, thread_options(1));
  const MilpSolution four = solve_milp(model, thread_options(4));
  EXPECT_EQ(four.status, seq.status)
      << to_string(four.status) << " vs " << to_string(seq.status);
  EXPECT_EQ(four.objective, seq.objective);
  EXPECT_EQ(four.values, seq.values);
  EXPECT_EQ(four.nodes, seq.nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpParallelParity, ::testing::Range(0, 80));

}  // namespace
}  // namespace cohls::milp
