#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "lp/presolve.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "milp/bounds.hpp"
#include "milp/dive.hpp"
#include "util/check.hpp"

namespace cohls::milp {

std::string to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::Optimal: return "Optimal";
    case MilpStatus::Feasible: return "Feasible";
    case MilpStatus::Infeasible: return "Infeasible";
    case MilpStatus::NoSolution: return "NoSolution";
  }
  return "Unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// A column value within this distance of an integer counts as integral.
constexpr double kIntegralityTolerance = 1e-6;
/// A node is pruned when its bound is within this absolute gap of the
/// incumbent.
constexpr double kAbsoluteGap = 1e-6;
/// Feasibility tolerance for integral node relaxations and dive results
/// offered as incumbents.
constexpr double kIncumbentTolerance = 1e-5;

/// One bound tightening on the branch path. Children share their parent's
/// suffix, so a node's bounds are O(depth) deltas instead of the O(n)
/// lower/upper vector copies the solver used to carry per node. The stored
/// bounds are absolute (already intersected with everything above them on
/// the path), so replaying root-to-leaf in order reproduces the node's
/// effective bounds exactly. The shared_ptr spine is refcounted, so a path
/// lives exactly as long as some open node still hangs below it.
struct PathStep {
  lp::Col col = -1;
  double lower = 0.0;
  double upper = 0.0;
  std::shared_ptr<const PathStep> parent;
};

struct Node {
  std::shared_ptr<const PathStep> path;    ///< bound deltas from the root
  std::shared_ptr<const lp::Basis> basis;  ///< parent's optimal basis, if any
  double parent_bound = 0.0;  ///< parent's node bound, for pruning before solving
  // Branching metadata for pseudocost learning: which column the parent
  // branched on to create this node, the column's fractional part at the
  // parent's relaxation, and which side this child is.
  lp::Col branch_col = -1;
  double branch_frac = 0.0;
  bool branch_up = false;
};

struct BoundUndo {
  lp::Col col;
  double lower;
  double upper;
};

/// Everything the search needs to solve node relaxations: the LP workspace
/// (revised simplex, or a cold scratch model), the effective-bound arrays of
/// the node being solved, and the path/undo scratch.
struct Workspace {
  std::optional<lp::RevisedSimplex> revised;
  lp::LpModel scratch;  ///< cold-solve path: bounds applied in place, one-shot solve_lp per node
  std::vector<double> cur_lower;  ///< effective bounds of the node being solved
  std::vector<double> cur_upper;
  std::vector<const PathStep*> path_buffer;
  std::vector<BoundUndo> undo_stack;
  long cold_scratch_solves = 0;
  long cold_scratch_pivots = 0;

  /// ORIGINAL-space mirror of the node box, maintained alongside cur_lower /
  /// cur_upper when a NodeBoundProvider is attached (the provider's contract
  /// is original model space; presolve-fixed columns sit collapsed at their
  /// fixed value). Empty when no provider is configured.
  std::vector<double> orig_lower;
  std::vector<double> orig_upper;

  /// Pseudocost history (objective degradation per unit of fractionality,
  /// by branching side).
  std::vector<double> pc_down_sum;
  std::vector<double> pc_up_sum;
  std::vector<long> pc_down_count;
  std::vector<long> pc_up_count;
};

class Solver {
 public:
  Solver(const MilpModel& model, const MilpOptions& options)
      : model_(model), options_(options), deadline_set_(options.time_limit_seconds > 0) {
    if (deadline_set_) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(options.time_limit_seconds));
    }
  }

  MilpSolution run() {
    MilpSolution out;
    if (!prepare()) {
      out.status = MilpStatus::Infeasible;
      return out;
    }
    seed_warm_start();
    return search();
  }

 private:
  /// Depth-first branch and bound from the root node.
  MilpSolution search() {
    MilpSolution out;
    std::vector<Node> stack;
    stack.push_back(Node{nullptr, nullptr, -MilpSolution::kBigBound});
    double global_bound = -MilpSolution::kBigBound;
    bool exhausted = true;
    bool root_infeasible_proven = false;
    bool any_lp_solved = false;

    while (!stack.empty()) {
      if (options_.cancel.can_cancel() && options_.cancel.cancelled()) {
        exhausted = false;
        cancelled_ = true;
        break;
      }
      if (limit_reached()) {
        exhausted = false;
        break;
      }
      Node node = std::move(stack.back());
      stack.pop_back();
      if (has_incumbent_ &&
          node.parent_bound >= incumbent_value_ - kAbsoluteGap) {
        continue;  // cannot improve on the incumbent
      }

      ++nodes_;
      const bool at_root = node.path == nullptr;
      apply_path(node.path);

      // Combinatorial bound first: it needs no LP solve, so a near-root node
      // it prunes costs almost nothing.
      const double comb = combinatorial_bound();
      if (comb == std::numeric_limits<double>::infinity()) {
        ++bound_prunes_;
        if (at_root) {
          root_infeasible_proven = true;
        }
        undo_path();
        continue;
      }
      if (has_incumbent_ && comb >= incumbent_value_ - kAbsoluteGap) {
        ++bound_prunes_;
        undo_path();
        continue;
      }
      if (at_root) {
        global_bound = std::max(global_bound, comb);
      }

      set_lp_cutoff(at_root,
                    has_incumbent_ ? incumbent_value_
                                   : std::numeric_limits<double>::infinity());
      const lp::LpSolution relax = solve_node(node);
      if (relax.status == lp::LpStatus::CutoffReached) {
        // The dual objective is a valid lower bound, so this is an exact
        // prune — and still a usable pseudocost observation.
        update_pseudocost(node, relax.objective);
        ++cutoff_prunes_;
        undo_path();
        continue;
      }
      if (relax.status == lp::LpStatus::Infeasible) {
        if (at_root) {
          root_infeasible_proven = true;
        }
        undo_path();
        continue;
      }
      if (relax.status == lp::LpStatus::Unbounded) {
        // An unbounded relaxation of a bounded-variable MILP means free
        // continuous directions; report the best we have.
        exhausted = false;
        undo_path();
        continue;
      }
      if (relax.status != lp::LpStatus::Optimal) {
        exhausted = false;  // iteration limit: bound unknown, cannot prune
        undo_path();
        continue;
      }
      any_lp_solved = true;
      update_pseudocost(node, relax.objective);
      const double bound = std::max(relax.objective, comb);
      if (at_root) {
        global_bound = std::max(global_bound, bound);
      }
      if (has_incumbent_ && bound >= incumbent_value_ - kAbsoluteGap) {
        undo_path();
        continue;
      }

      const int branch_col = select_branch(relax.values);
      if (branch_col < 0) {
        // Integral: new incumbent.
        offer_incumbent(relax.values, kIncumbentTolerance);
        undo_path();
        continue;
      }
      if (options_.enable_rounding_heuristic) {
        offer_incumbent(relax.values, kIntegralityTolerance);
      }

      // Children re-solve from this node's optimal basis with the dual
      // simplex after the single branching-bound change. Snapshot it before
      // the root dive below re-solves (and re-bases) the workspace.
      std::shared_ptr<const lp::Basis> child_basis;
      if (use_revised_) {
        child_basis = std::make_shared<lp::Basis>(ws_.revised->basis());
      }
      if (at_root && options_.dive && use_revised_) {
        run_root_dive(relax);
        if (has_incumbent_ && bound >= incumbent_value_ - kAbsoluteGap) {
          undo_path();
          continue;  // the dive's incumbent already matches the root bound
        }
      }
      const std::size_t bc = static_cast<std::size_t>(branch_col);
      const double value = relax.values[bc];
      const double floor_value = std::floor(value);
      const double frac = value - floor_value;
      const double down_hi = std::min(ws_.cur_upper[bc], floor_value);
      const double up_lo = std::max(ws_.cur_lower[bc], floor_value + 1.0);
      Node down{std::make_shared<PathStep>(
                    PathStep{branch_col, ws_.cur_lower[bc], down_hi, node.path}),
                child_basis, bound, branch_col, frac, false};
      Node up{std::make_shared<PathStep>(
                  PathStep{branch_col, up_lo, ws_.cur_upper[bc], node.path}),
              child_basis, bound, branch_col, frac, true};
      const bool down_viable = ws_.cur_lower[bc] <= down_hi;
      const bool up_viable = up_lo <= ws_.cur_upper[bc];
      undo_path();
      // Depth-first; explore the child nearer the fractional value first
      // (push it last so it pops first).
      const bool up_first = value - floor_value > 0.5;
      if (down_viable && !up_first) {
        stack.push_back(std::move(down));
      }
      if (up_viable) {
        stack.push_back(std::move(up));
      }
      if (down_viable && up_first) {
        stack.push_back(std::move(down));
      }
    }

    out.nodes = nodes_;
    out.cancelled = cancelled_;
    out.bound_prunes = bound_prunes_;
    out.cutoff_prunes = cutoff_prunes_;
    out.dive_lp_solves = dive_lp_solves_;
    out.dive_found_incumbent = dive_found_;
    collect_lp_stats(out);
    finish(out, exhausted, global_bound, root_infeasible_proven, any_lp_solved);
    return out;
  }

  /// Presolves the model, builds the reduced-space MILP and the root node
  /// solver. Returns false when presolve alone proves infeasibility (which
  /// includes an integer column fixed to a fractional value).
  bool prepare() {
    // Decide the solve strategy up front, on the ORIGINAL model size, so the
    // choice is independent of what presolve removes. Tiny models are usually
    // solved at the root without branching, where the whole fast path — root
    // presolve, CSC build, refactorization state — costs more than warm
    // re-solves can recoup; below the threshold the solver skips presolve and
    // the persistent workspace and gives every node a one-shot cold solve,
    // which has the lowest constant factor at this scale.
    use_revised_ = options_.simplex == lp::SimplexAlgorithm::Revised;
    bool cold_fallback = false;
    if (use_revised_ && options_.cold_solve_threshold > 0 &&
        model_.variable_count() + model_.constraint_count() <=
            options_.cold_solve_threshold) {
      use_revised_ = false;
      cold_fallback = true;
    }
    if (options_.presolve && !cold_fallback) {
      pre_ = lp::presolve(model_.lp());
      if (pre_->infeasible()) {
        return false;
      }
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        if (!model_.is_integer(c) || !pre_->column_fixed(c)) {
          continue;
        }
        const double v = pre_->fixed_value(c);
        if (std::abs(v - std::round(v)) > kIntegralityTolerance) {
          return false;  // integer column pinned to a fractional value
        }
      }
      const lp::LpModel& red = pre_->model();
      for (lp::Col rc = 0; rc < red.variable_count(); ++rc) {
        reduced_.add_variable(VarKind::Continuous, red.lower_bound(rc),
                              red.upper_bound(rc), red.objective_coefficient(rc));
      }
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        if (pre_->column_fixed(c)) {
          objective_offset_ += model_.lp().objective_coefficient(c) * pre_->fixed_value(c);
        } else {
          reduced_.set_kind(pre_->reduced_column(c), model_.kind(c));
        }
      }
      for (lp::Row r = 0; r < red.constraint_count(); ++r) {
        reduced_.add_constraint(red.row_terms(r), red.row_sense(r), red.row_rhs(r));
      }
    } else {
      reduced_ = model_;
    }

    const int n = reduced_.variable_count();
    ws_.cur_lower.resize(static_cast<std::size_t>(n));
    ws_.cur_upper.resize(static_cast<std::size_t>(n));
    for (lp::Col c = 0; c < n; ++c) {
      ws_.cur_lower[static_cast<std::size_t>(c)] = reduced_.lp().lower_bound(c);
      ws_.cur_upper[static_cast<std::size_t>(c)] = reduced_.lp().upper_bound(c);
    }

    if (options_.bounds != nullptr) {
      orig_of_reduced_.assign(static_cast<std::size_t>(n), -1);
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        const lp::Col rc = pre_.has_value() ? pre_->reduced_column(c) : c;
        if (rc >= 0) {
          orig_of_reduced_[static_cast<std::size_t>(rc)] = c;
        }
      }
    }
    long integer_columns = 0;
    for (lp::Col c = 0; c < n; ++c) {
      if (reduced_.is_integer(c)) {
        ++integer_columns;
      }
    }
    // Two solves per dive level (fix + one backtrack flip), depth at most
    // the integer-column count, plus slack for re-fractionalizations.
    dive_budget_ = 2 * integer_columns + 8;
    ws_.pc_down_sum.assign(static_cast<std::size_t>(n), 0.0);
    ws_.pc_up_sum.assign(static_cast<std::size_t>(n), 0.0);
    ws_.pc_down_count.assign(static_cast<std::size_t>(n), 0);
    ws_.pc_up_count.assign(static_cast<std::size_t>(n), 0);
    if (options_.bounds != nullptr) {
      const std::size_t on = static_cast<std::size_t>(model_.variable_count());
      ws_.orig_lower.resize(on);
      ws_.orig_upper.resize(on);
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        const std::size_t cs = static_cast<std::size_t>(c);
        if (pre_.has_value() && pre_->column_fixed(c)) {
          ws_.orig_lower[cs] = pre_->fixed_value(c);
          ws_.orig_upper[cs] = pre_->fixed_value(c);
        } else {
          const lp::Col rc = pre_.has_value() ? pre_->reduced_column(c) : c;
          ws_.orig_lower[cs] = reduced_.lp().lower_bound(rc);
          ws_.orig_upper[cs] = reduced_.lp().upper_bound(rc);
        }
      }
    }

    if (use_revised_) {
      ws_.revised.emplace(reduced_.lp());
    } else {
      ws_.scratch = reduced_.lp();
    }
    return true;
  }

  /// Maps MilpOptions::warm_start (original space) onto the reduced model.
  void seed_warm_start() {
    if (!options_.warm_start.has_value()) {
      return;
    }
    COHLS_EXPECT(static_cast<int>(options_.warm_start->size()) == model_.variable_count(),
                 "warm start arity must match the model");
    if (!model_.is_feasible(*options_.warm_start, kIntegralityTolerance)) {
      return;
    }
    std::vector<double> mapped(static_cast<std::size_t>(reduced_.variable_count()));
    if (pre_.has_value()) {
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        const int rc = pre_->reduced_column(c);
        if (rc >= 0) {
          mapped[static_cast<std::size_t>(rc)] =
              (*options_.warm_start)[static_cast<std::size_t>(c)];
        }
      }
    } else {
      mapped = *options_.warm_start;
    }
    if (reduced_.is_feasible(mapped, kIntegralityTolerance)) {
      incumbent_ = std::move(mapped);
      incumbent_value_ = reduced_.lp().objective_value(incumbent_);
      has_incumbent_ = true;
    }
  }

  bool limit_reached() const {
    if (options_.max_nodes > 0 && nodes_ >= options_.max_nodes) {
      return true;
    }
    return deadline_set_ && Clock::now() >= deadline_;
  }

  /// Replays the node's branch path onto the workspace's effective-bound
  /// arrays and its node solver, recording undo entries.
  void apply_path(const std::shared_ptr<const PathStep>& path) {
    ws_.path_buffer.clear();
    for (const PathStep* step = path.get(); step != nullptr; step = step->parent.get()) {
      ws_.path_buffer.push_back(step);
    }
    for (auto it = ws_.path_buffer.rbegin(); it != ws_.path_buffer.rend(); ++it) {
      const PathStep* step = *it;
      const std::size_t c = static_cast<std::size_t>(step->col);
      ws_.undo_stack.push_back({step->col, ws_.cur_lower[c], ws_.cur_upper[c]});
      set_node_bounds(step->col, step->lower, step->upper);
    }
  }

  void undo_path() {
    for (auto it = ws_.undo_stack.rbegin(); it != ws_.undo_stack.rend(); ++it) {
      set_node_bounds(it->col, it->lower, it->upper);
    }
    ws_.undo_stack.clear();
  }

  void set_node_bounds(lp::Col c, double lower, double upper) {
    const std::size_t j = static_cast<std::size_t>(c);
    ws_.cur_lower[j] = lower;
    ws_.cur_upper[j] = upper;
    if (!ws_.orig_lower.empty()) {
      // Reduced-column bounds are the original column's effective bounds
      // (presolve only removes columns, it never rescales the survivors),
      // so the mirror takes the same values at the mapped index.
      const std::size_t oc = static_cast<std::size_t>(orig_of_reduced_[j]);
      ws_.orig_lower[oc] = lower;
      ws_.orig_upper[oc] = upper;
    }
    if (use_revised_) {
      ws_.revised->set_bounds(c, lower, upper);
    } else {
      ws_.scratch.set_bounds(c, lower, upper);
    }
  }

  lp::LpSolution solve_node(const Node& node) {
    if (use_revised_) {
      if (node.basis != nullptr && !node.basis->empty()) {
        return ws_.revised->solve_from(*node.basis);
      }
      return ws_.revised->solve();
    }
    const lp::LpSolution solution = lp::solve_lp(ws_.scratch, options_.simplex);
    ++ws_.cold_scratch_solves;
    ws_.cold_scratch_pivots += solution.iterations;
    return solution;
  }

  void collect_lp_stats(MilpSolution& out) const {
    if (use_revised_ && ws_.revised.has_value()) {
      const lp::SolveStats& stats = ws_.revised->total_stats();
      out.lp_pivots = stats.primal_pivots + stats.dual_pivots;
      out.lp_warm_solves = stats.warm_solves;
      out.lp_cold_solves = stats.cold_solves;
      out.lp_refactorizations = stats.refactorizations;
      out.lp_factor_nonzeros = stats.factor_nonzeros;
    } else {
      out.lp_pivots = ws_.cold_scratch_pivots;
      out.lp_cold_solves = ws_.cold_scratch_solves;
    }
  }

  /// The node's combinatorial lower bound in reduced space (comparable with
  /// incumbent_value_): the provider's original-space bound minus the
  /// objective mass on presolve-fixed columns. -infinity when no provider is
  /// configured; +infinity when the provider proves the node box empty.
  double combinatorial_bound() const {
    if (options_.bounds == nullptr) {
      return -std::numeric_limits<double>::infinity();
    }
    const double cb = options_.bounds->objective_lower_bound(ws_.orig_lower, ws_.orig_upper);
    if (cb == std::numeric_limits<double>::infinity()) {
      return cb;
    }
    return cb - objective_offset_;
  }

  /// Arms the dual-simplex objective cutoff for the next warm re-solve. Only
  /// active in bound-driven mode (a provider is attached): the cutoff skips
  /// the pruned node's rounding-heuristic pass, which is a trajectory change
  /// we keep out of the plain configuration. Off at the root so the root
  /// bound is always exact.
  void set_lp_cutoff(bool at_root, double incumbent_value) {
    if (!use_revised_ || options_.bounds == nullptr) {
      return;
    }
    const double cutoff = at_root ? std::numeric_limits<double>::infinity()
                                  : incumbent_value - kAbsoluteGap;
    ws_.revised->set_objective_cutoff(cutoff);
  }

  /// Variable selection by pseudocost: a fractional column scores the
  /// product of its estimated up/down bound degradations; a column with no
  /// history on either side is "unreliable" and the rule falls back to
  /// most-fractional among the unreliable ones, which is exactly what
  /// initializes the pseudocosts. History is kept per solve, so a solve is
  /// bit-reproducible. Returns -1 when the point is integral.
  int select_branch(const std::vector<double>& x) const {
    int best_unreliable = -1;
    double best_unreliable_frac = kIntegralityTolerance;
    int best_reliable = -1;
    double best_score = -1.0;
    for (lp::Col c = 0; c < reduced_.variable_count(); ++c) {
      if (!reduced_.is_integer(c)) {
        continue;
      }
      const std::size_t j = static_cast<std::size_t>(c);
      const double v = x[j];
      const double frac = std::abs(v - std::round(v));
      if (frac <= kIntegralityTolerance) {
        continue;
      }
      const double f = v - std::floor(v);
      if (ws_.pc_down_count[j] == 0 || ws_.pc_up_count[j] == 0) {
        if (frac > best_unreliable_frac) {
          best_unreliable_frac = frac;
          best_unreliable = c;
        }
      } else {
        const double down =
            ws_.pc_down_sum[j] / static_cast<double>(ws_.pc_down_count[j]) * f;
        const double up =
            ws_.pc_up_sum[j] / static_cast<double>(ws_.pc_up_count[j]) * (1.0 - f);
        const double score = std::max(down, 1e-6) * std::max(up, 1e-6);
        if (score > best_score) {
          best_score = score;
          best_reliable = c;
        }
      }
    }
    return best_unreliable >= 0 ? best_unreliable : best_reliable;
  }

  /// Records the observed bound degradation of a child relative to its
  /// parent, normalized per unit of fractionality, on the branched column.
  void update_pseudocost(const Node& node, double child_bound) {
    if (node.branch_col < 0 || node.parent_bound <= -MilpSolution::kBigBound) {
      return;
    }
    const double denom = node.branch_up ? 1.0 - node.branch_frac : node.branch_frac;
    if (denom < 1e-9) {
      return;
    }
    const double gain = std::max(0.0, child_bound - node.parent_bound) / denom;
    const std::size_t j = static_cast<std::size_t>(node.branch_col);
    if (node.branch_up) {
      ws_.pc_up_sum[j] += gain;
      ++ws_.pc_up_count[j];
    } else {
      ws_.pc_down_sum[j] += gain;
      ++ws_.pc_down_count[j];
    }
  }

  /// The root dive (see milp/dive.hpp): fixes its way down from the root
  /// relaxation with warm re-solves, offers any integral point it reaches as
  /// an incumbent, and restores every bound it touched. LP work lands in the
  /// dive counters, never in the node budget.
  void run_root_dive(const lp::LpSolution& root_relax) {
    std::vector<BoundUndo> undo;
    lp::Basis dive_basis = ws_.revised->basis();
    DiveHooks hooks;
    hooks.lower = &ws_.cur_lower;
    hooks.upper = &ws_.cur_upper;
    hooks.set_bounds = [this, &undo](lp::Col c, double lo, double hi) {
      const std::size_t j = static_cast<std::size_t>(c);
      undo.push_back({c, ws_.cur_lower[j], ws_.cur_upper[j]});
      set_node_bounds(c, lo, hi);
    };
    hooks.resolve = [this, &dive_basis]() {
      lp::LpSolution sol = ws_.revised->solve_from(dive_basis);
      if (sol.status == lp::LpStatus::Optimal) {
        dive_basis = ws_.revised->basis();
      }
      return sol;
    };
    const DiveResult result =
        dive_for_incumbent(reduced_, hooks, root_relax,
                           kIntegralityTolerance,
                           /*feasibility_tolerance=*/kIncumbentTolerance, dive_budget_);
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      set_node_bounds(it->col, it->lower, it->upper);
    }
    dive_lp_solves_ += result.lp_solves;
    dive_found_ = dive_found_ || result.found;
    if (result.found) {
      offer_incumbent(result.values, kIncumbentTolerance);
    }
  }

  /// Snaps the integer columns of `x` and installs the point as the
  /// incumbent when it improves on the current one and is feasible within
  /// `tolerance`.
  void offer_incumbent(const std::vector<double>& x, double tolerance) {
    std::vector<double> snapped = x;
    for (lp::Col c = 0; c < reduced_.variable_count(); ++c) {
      if (reduced_.is_integer(c)) {
        snapped[static_cast<std::size_t>(c)] =
            std::round(snapped[static_cast<std::size_t>(c)]);
      }
    }
    const double value = reduced_.lp().objective_value(snapped);
    if ((!has_incumbent_ || value < incumbent_value_ - 1e-12) &&
        reduced_.is_feasible(snapped, tolerance)) {
      incumbent_ = std::move(snapped);
      incumbent_value_ = value;
      has_incumbent_ = true;
    }
  }

  std::vector<double> restore_incumbent() const {
    std::vector<double> full =
        pre_.has_value() ? pre_->restore(incumbent_) : incumbent_;
    for (lp::Col c = 0; c < model_.variable_count(); ++c) {
      if (model_.is_integer(c)) {
        full[static_cast<std::size_t>(c)] = std::round(full[static_cast<std::size_t>(c)]);
      }
    }
    return full;
  }

  /// The epilogue: best bound, incumbent restoration and status.
  void finish(MilpSolution& out, bool exhausted, double global_bound,
              bool root_infeasible_proven, bool any_lp_solved) {
    const double bound_offset = objective_offset_;
    out.best_bound = exhausted && has_incumbent_ ? incumbent_value_ + bound_offset
                                                 : global_bound + bound_offset;
    if (has_incumbent_) {
      out.values = restore_incumbent();
      out.objective = model_.lp().objective_value(out.values);
      out.status = exhausted ? MilpStatus::Optimal : MilpStatus::Feasible;
      if (exhausted) {
        out.best_bound = out.objective;
      }
    } else if (exhausted && (any_lp_solved || root_infeasible_proven || out.nodes > 0)) {
      out.status = MilpStatus::Infeasible;
    } else {
      out.status = MilpStatus::NoSolution;
    }
  }

  const MilpModel& model_;
  const MilpOptions& options_;
  std::optional<lp::Presolved> pre_;
  MilpModel reduced_;  ///< presolved model the search actually branches over
  double objective_offset_ = 0.0;  ///< objective mass on presolve-fixed columns
  bool use_revised_ = true;
  Workspace ws_;
  bool deadline_set_;
  Clock::time_point deadline_{};
  long nodes_ = 0;
  bool cancelled_ = false;
  /// Original column index per reduced column (provider mode only).
  std::vector<lp::Col> orig_of_reduced_;
  long dive_budget_ = 0;
  long bound_prunes_ = 0;
  long cutoff_prunes_ = 0;
  long dive_lp_solves_ = 0;
  bool dive_found_ = false;
  bool has_incumbent_ = false;
  std::vector<double> incumbent_;  ///< reduced space; restored on exit
  double incumbent_value_ = std::numeric_limits<double>::infinity();
};

}  // namespace

MilpSolution solve_milp(const MilpModel& model, const MilpOptions& options) {
  Solver solver(model, options);
  return solver.run();
}

}  // namespace cohls::milp
