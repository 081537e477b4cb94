// One synthesis job as a user of the library runs it — parse, lint,
// synthesize, certify — with a span around each public call, plus the
// per-layer hooks the traced run attaches to core::synthesize.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-layer work counted through core::SolveObserver.
struct LayerCounters {
  long layer_solves = 0;
  long milp_solves = 0;  ///< layer solves in which the MILP search ran
  long ilp_kept = 0;     ///< layer solves that kept the MILP result
  long milp_nodes = 0;
  long dive_lp_solves = 0;
  long cutoff_prunes = 0;
  long bound_prunes = 0;
  long lp_pivots = 0;
  long lp_refactorizations = 0;
  long lp_warm_solves = 0;
  long lp_cold_solves = 0;
  double layer_solve_s = 0.0;
  double milp_layer_solve_s = 0.0;  ///< wall of the layer solves that ran the MILP
};

/// Attached to core::synthesize, both as the solve observer (counts each
/// layer solve and records it as a span) and as the layer cache (defers to
/// `inner`, if any; with tracing on, first captures each layer's inputs for
/// replay through schedule::schedule_layer). Used by one synthesis at a
/// time.
class LayerHooks final : public core::SolveObserver, public core::LayerSolveCache {
 public:
  LayerHooks(Tracer& tracer, core::LayerSolveCache* inner)
      : tracer_(tracer), inner_(inner) {}

  void set_job(int job) { job_ = job; }

  void on_layer_solve(const core::LayerSolveEvent& event) override;
  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext& context) override;
  void store(const core::LayerSolveContext& context,
             const core::LayerOutcome& outcome) override;

  /// Re-runs schedule::schedule_layer on every layer captured since the
  /// last call, each under a "schedule.layer_schedule" span, and forgets
  /// them. `assay` is the assay the captured layers belong to.
  void replay_schedules(const model::Assay& assay);

  [[nodiscard]] const LayerCounters& counters() const { return counters_; }

 private:
  struct Captured {
    schedule::LayerRequest request;
    schedule::TransportPlan transport;
    model::CostModel costs;
    model::DeviceInventory inventory;
  };

  Tracer& tracer_;
  core::LayerSolveCache* inner_;
  int job_ = -1;
  LayerCounters counters_;
  std::vector<Captured> captured_;
};

struct SynthJob {
  std::string name;
  std::string text;  ///< assay in the io text format
};

struct JobResult {
  bool ok = false;
  std::string error;
  double objective = 0.0;
  int resynthesis_iterations = 0;
  double seconds = 0.0;  ///< parse + lint + synthesize + certify
};

/// Runs one job: io::assay_from_text -> analysis::lint_assay_text ->
/// core::synthesize -> schedule::certify_result. With `hooks`, the layer
/// hooks are attached and, when tracing, layering and the captured layer
/// schedules are replayed after the timed part through their own public
/// functions.
[[nodiscard]] JobResult run_synth_job(const SynthJob& job,
                                      const core::SynthesisOptions& options,
                                      Tracer& tracer, int job_id, LayerHooks* hooks);

/// Sets the per-layer metrics of the job flow from the spans and counters.
void report_job_layers(Report& report, const Tracer& tracer, const LayerCounters& counters,
                       long resynthesis_iterations);

}  // namespace perfbench
