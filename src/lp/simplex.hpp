// LP solve entry point. Two implementations share this
// interface: the sparse revised simplex (lp/revised_simplex.hpp, the
// default) and the original dense-tableau two-phase primal simplex kept in
// lp/simplex.cpp for differential testing. Both support native variable
// bounds (nonbasic variables rest at either bound; bound flips avoid
// explicit bound rows). This is the LP engine under the branch-and-bound
// MILP solver that substitutes for the paper's Gurobi dependency.
#pragma once

#include <string>
#include <vector>

#include "lp/model.hpp"

namespace cohls::lp {

enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  /// A dual re-solve stopped early because its objective — a monotonically
  /// nondecreasing lower bound on the LP optimum — crossed the caller's
  /// cutoff (RevisedSimplex::set_objective_cutoff). The reported objective
  /// is a valid lower bound; values are not populated. For a branch-and-
  /// bound caller this is an exact prune, not a limit.
  CutoffReached,
};

[[nodiscard]] std::string to_string(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> values;  ///< one value per model variable when solved
  int iterations = 0;
};

enum class SimplexAlgorithm {
  /// Sparse revised simplex (lp/revised_simplex.hpp): CSC matrix, eta-file
  /// basis with periodic refactorization, warm-startable dual re-solves.
  Revised,
  /// The original dense-tableau two-phase simplex, kept for differential
  /// testing against the revised implementation.
  Dense,
};

/// Solves `model` (a minimization) with the bounded-variable simplex
/// implementation `algorithm`.
[[nodiscard]] LpSolution solve_lp(const LpModel& model,
                                  SimplexAlgorithm algorithm = SimplexAlgorithm::Revised);

}  // namespace cohls::lp
