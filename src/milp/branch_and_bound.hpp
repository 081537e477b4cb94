// Exact branch-and-bound MILP solver over the bounded simplex. Substitutes
// for the paper's Gurobi dependency: exact on the small per-layer models,
// with node / time limits so the synthesizer can fall back to its heuristic
// when a layer is too large.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lp/simplex.hpp"
#include "milp/model.hpp"
#include "util/cancellation.hpp"

namespace cohls::milp {

class NodeBoundProvider;

enum class MilpStatus {
  Optimal,     ///< proven optimal incumbent
  Feasible,    ///< an incumbent exists but the search hit a limit
  Infeasible,  ///< no integral solution exists
  NoSolution,  ///< search hit a limit before finding any incumbent
};

[[nodiscard]] std::string to_string(MilpStatus status);

struct MilpOptions {
  /// Maximum branch-and-bound nodes (LP solves); <= 0 means unlimited.
  long max_nodes = 200000;
  /// Accepted and ignored: the search is one sequential depth-first loop, so
  /// every value returns what 1 returns. Kept only so existing callers still
  /// compile; parallelism comes from running independent solves at once.
  int threads = 1;
  /// Skip the warm-start fast path when the model's variable count plus
  /// constraint count is at most this (<= 0 disables the heuristic). Tiny
  /// models typically solve at the root without branching, where root
  /// presolve and the persistent revised workspace (CSC build, eta-file
  /// refactorization state) cost more than warm re-solves can ever recoup;
  /// below the threshold each node gets a one-shot cold solve with the
  /// configured simplex algorithm instead. Only applies when the Revised
  /// algorithm is selected.
  int cold_solve_threshold = 32;
  /// Wall-clock budget in seconds; <= 0 means unlimited.
  double time_limit_seconds = 30.0;
  /// Optional known-feasible point used as the initial incumbent.
  std::optional<std::vector<double>> warm_start;
  /// Try rounding fractional LP relaxations into incumbents.
  bool enable_rounding_heuristic = true;
  /// LP solver for node relaxations. With the (default) Revised algorithm,
  /// child nodes re-solve with the dual simplex from their parent's optimal
  /// basis; the Dense algorithm solves every node cold and exists for
  /// differential testing.
  lp::SimplexAlgorithm simplex = lp::SimplexAlgorithm::Revised;
  /// Run lp::presolve once at the root (fixed-column elimination, empty and
  /// singleton rows) and branch in the reduced space.
  bool presolve = true;
  /// Optional combinatorial node-bound provider (see milp/bounds.hpp). When
  /// set, every node evaluates the provider against its effective variable
  /// bounds (in ORIGINAL model space) before its LP relaxation; the node
  /// prunes without an LP solve when the combinatorial bound already meets
  /// the incumbent, and otherwise the node bound is the max of the two.
  std::shared_ptr<const NodeBoundProvider> bounds;
  /// Depth-first rounding/fixing dive at the root, before branching: fix
  /// the least-fractional integer column to its nearest value, re-solve warm,
  /// backtrack once per column on infeasibility. A successful dive installs a
  /// feasible incumbent the search can prune against from node 2. Dive LP
  /// solves are *not* charged against max_nodes.
  bool dive = true;
  /// Cooperative cancellation: polled between nodes. A cancelled solve
  /// returns like a limit-hit one (Feasible with the incumbent so far, or
  /// NoSolution) with `cancelled` set in the solution.
  CancellationToken cancel{};
};

struct MilpSolution {
  MilpStatus status = MilpStatus::NoSolution;
  double objective = 0.0;
  std::vector<double> values;  ///< incumbent when status is Optimal/Feasible
  double best_bound = -kBigBound;
  long nodes = 0;
  /// True when the search stopped because MilpOptions::cancel fired.
  bool cancelled = false;

  // LP work performed across all node relaxations, for the engine metrics.
  long lp_pivots = 0;           ///< simplex pivots (primal + dual)
  long lp_warm_solves = 0;      ///< node re-solves warm-started from a parent basis
  long lp_cold_solves = 0;      ///< from-scratch two-phase solves
  long lp_refactorizations = 0; ///< basis refactorizations in the revised solver
  long lp_factor_nonzeros = 0;  ///< basis-inverse nonzeros, summed over refactorizations

  // Bound-driven search summary.
  long bound_prunes = 0;   ///< nodes pruned by the combinatorial bound, no LP solve
  long cutoff_prunes = 0;  ///< node LPs cut off early by the dual objective cutoff
  long dive_lp_solves = 0; ///< LP solves spent inside the root dive (not nodes)
  bool dive_found_incumbent = false;  ///< the root dive installed an incumbent

  /// Always 0: the search has no worker team to wait for work. Kept only so
  /// existing readers still compile.
  double worker_idle_seconds = 0.0;

  static constexpr double kBigBound = 1e100;
};

/// Solves `model` (a minimization) exactly, up to the configured limits.
[[nodiscard]] MilpSolution solve_milp(const MilpModel& model, const MilpOptions& options = {});

}  // namespace cohls::milp
