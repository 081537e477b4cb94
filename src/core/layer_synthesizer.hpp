// Per-layer engine selection. Small layers are solved exactly with the
// branch-and-bound MILP (the paper's per-layer ILP); every layer is also
// solved by the heuristic list scheduler, and the better-scoring result is
// kept. Layers above the engine's size thresholds use the heuristic alone.
#pragma once

#include "core/ilp_layer_model.hpp"
#include "core/options.hpp"
#include "schedule/list_scheduler.hpp"

namespace cohls::core {

struct LayerOutcome {
  schedule::LayerResult result;
  /// Inventory after this layer (devices the layer created are appended).
  model::DeviceInventory inventory{1};
  bool used_ilp = false;
  /// The layer-local objective of the kept result (for diagnostics).
  double score = 0.0;
  /// Branch-and-bound nodes the MILP spent on this layer (0 when the
  /// heuristic ran alone), for the engine's metrics.
  long milp_nodes = 0;
  /// LP work inside the MILP: simplex pivots, warm dual re-solves from a
  /// parent basis, from-scratch solves and basis refactorizations.
  long lp_pivots = 0;
  long lp_warm_solves = 0;
  long lp_cold_solves = 0;
  long lp_refactorizations = 0;
  /// Bound-driven search summary: nodes pruned by the combinatorial bound
  /// before any LP solve, nodes pruned by the LP dual objective-cutoff, LP
  /// re-solves spent in the root dive, and whether the dive installed the
  /// first incumbent.
  long milp_bound_prunes = 0;
  long milp_cutoff_prunes = 0;
  long milp_dive_lp_solves = 0;
  bool milp_dive_found_incumbent = false;
  /// The MILP stopped on a cancellation token rather than on exhaustion or
  /// a budget. The outcome (the heuristic fallback) is still usable, but it
  /// must not be cached: a fresh solve could return something better.
  bool milp_cancelled = false;
};

/// Scores one layer's contribution to the paper's objective: C_t * layer
/// makespan + integration cost of devices the layer created + C_p * newly
/// created paths.
[[nodiscard]] double layer_score(const schedule::LayerResult& result,
                                 const model::DeviceInventory& inventory,
                                 const schedule::LayerRequest& request,
                                 const model::Assay& assay,
                                 const model::CostModel& costs);

/// Synthesizes one layer from `inventory` (left untouched; the returned
/// outcome carries the updated copy).
[[nodiscard]] LayerOutcome synthesize_layer(const schedule::LayerRequest& request,
                                            const model::Assay& assay,
                                            const schedule::TransportPlan& transport,
                                            const model::CostModel& costs,
                                            const EngineOptions& engine,
                                            const model::DeviceInventory& inventory);

}  // namespace cohls::core
