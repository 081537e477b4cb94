#include "synth_job.hpp"

#include <exception>

#include "analysis/linter.hpp"
#include "core/layering.hpp"
#include "io/assay_text.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/objective.hpp"
#include "schedule/validate.hpp"

namespace perfbench {

void LayerHooks::on_layer_solve(const core::LayerSolveEvent& event) {
  const Clock::time_point end = Clock::now();
  tracer_.add("core.layer_solve",
              end - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(event.seconds)),
              end, job_);
  ++counters_.layer_solves;
  counters_.layer_solve_s += event.seconds;
  // The MILP always solves at least its root relaxation (or prunes it by
  // the combinatorial bound), so any search work means the MILP ran.
  const bool milp_ran = event.milp_nodes + event.lp_cold_solves + event.lp_warm_solves +
                            event.milp_bound_prunes >
                        0;
  if (milp_ran) {
    ++counters_.milp_solves;
    counters_.milp_layer_solve_s += event.seconds;
  }
  counters_.ilp_kept += milp_ran && event.used_ilp ? 1 : 0;
  counters_.milp_nodes += event.milp_nodes;
  counters_.dive_lp_solves += event.milp_dive_lp_solves;
  counters_.cutoff_prunes += event.milp_cutoff_prunes;
  counters_.bound_prunes += event.milp_bound_prunes;
  counters_.lp_pivots += event.lp_pivots;
  counters_.lp_refactorizations += event.lp_refactorizations;
  counters_.lp_warm_solves += event.lp_warm_solves;
  counters_.lp_cold_solves += event.lp_cold_solves;
}

std::optional<core::LayerOutcome> LayerHooks::lookup(const core::LayerSolveContext& context) {
  if (tracer_.enabled()) {
    captured_.push_back({context.request, context.transport, context.costs, context.inventory});
  }
  return inner_ != nullptr ? inner_->lookup(context) : std::nullopt;
}

void LayerHooks::store(const core::LayerSolveContext& context,
                       const core::LayerOutcome& outcome) {
  if (inner_ != nullptr) {
    inner_->store(context, outcome);
  }
}

void LayerHooks::replay_schedules(const model::Assay& assay) {
  for (Captured& layer : captured_) {
    const Span span(tracer_, "schedule.layer_schedule", job_);
    (void)schedule::schedule_layer(layer.request, assay, layer.transport, layer.costs,
                                   layer.inventory);
  }
  captured_.clear();
}

JobResult run_synth_job(const SynthJob& job, const core::SynthesisOptions& base,
                        Tracer& tracer, int job_id, LayerHooks* hooks) {
  JobResult out;
  core::SynthesisOptions options = base;
  if (hooks != nullptr) {
    hooks->set_job(job_id);
    options.observer = hooks;
    options.layer_cache = hooks;
  }
  const Clock::time_point begin = Clock::now();
  try {
    std::optional<model::Assay> assay;
    {
      const Span job_span(tracer, "job", job_id);
      {
        const Span span(tracer, "io.parse", job_id);
        assay.emplace(io::assay_from_text(job.text));
      }
      analysis::LintReport lint;
      {
        const Span span(tracer, "analysis.lint", job_id);
        lint = analysis::lint_assay_text(
            job.text, {options.max_devices, options.layering.indeterminate_threshold});
      }
      if (lint.has_errors()) {
        out.error = job.name + ": lint errors";
        return out;
      }
      core::SynthesisReport report;
      {
        const Span span(tracer, "core.synthesize", job_id);
        report = core::synthesize(*assay, options);
      }
      std::vector<diag::Diagnostic> findings;
      {
        const Span span(tracer, "schedule.certify", job_id);
        findings = schedule::certify_result(report.result, *assay, report.transport);
      }
      out.seconds = seconds_since(begin);
      if (!findings.empty()) {
        out.error = job.name + ": result not certified: " + findings.front().message;
        return out;
      }
      out.objective =
          schedule::evaluate_objective(report.result, *assay, options.costs).weighted_total;
      out.resynthesis_iterations = static_cast<int>(report.iterations.size()) - 1;
    }
    if (hooks != nullptr && tracer.enabled()) {
      // Untimed replay of the layers core::synthesize reaches only from
      // inside: the layering it ran first, and every layer schedule.
      const Span span(tracer, "replay", job_id);
      {
        const Span layering(tracer, "core.layering", job_id);
        (void)core::layer_assay(*assay, options.layering);
      }
      hooks->replay_schedules(*assay);
    }
    out.ok = true;
  } catch (const std::exception& error) {
    out.seconds = seconds_since(begin);
    out.error = job.name + ": " + error.what();
  }
  return out;
}

void report_job_layers(Report& report, const Tracer& tracer, const LayerCounters& counters,
                       long resynthesis_iterations) {
  const std::map<std::string, double> total = tracer.total_seconds();
  const std::map<std::string, double> self = tracer.self_seconds();
  const auto get = [](const std::map<std::string, double>& map, const char* name) {
    const auto it = map.find(name);
    return it == map.end() ? 0.0 : it->second;
  };
  report.set("io.parse_s", get(total, "io.parse"), "s");
  report.set("analysis.lint_s", get(total, "analysis.lint"), "s");
  report.set("core.layering_s", get(total, "core.layering"), "s");
  report.set("schedule.layer_schedule_s", get(total, "schedule.layer_schedule"), "s");
  report.set("schedule.certify_s", get(total, "schedule.certify"), "s");
  report.set("core.synthesize_s", get(total, "core.synthesize"), "s");
  report.set("core.resynthesis_iterations", static_cast<double>(resynthesis_iterations),
             "count");
  // Self time of core.synthesize is everything outside the layer solves;
  // the replayed layering is the part of it the flow can name.
  report.set("core.flow_other_s",
             get(self, "core.synthesize") - get(total, "core.layering"), "s");
  report.set("core.layer_solves", static_cast<double>(counters.layer_solves), "count");
  report.set("core.layer_solve_s", counters.layer_solve_s, "s");
  report.set("milp.solves", static_cast<double>(counters.milp_solves), "count");
  report.set("core.ilp_kept", static_cast<double>(counters.ilp_kept), "count");
  report.set("core.ilp_kept_ratio",
             counters.milp_solves > 0 ? static_cast<double>(counters.ilp_kept) /
                                            static_cast<double>(counters.milp_solves)
                                      : 0.0,
             "ratio");
  report.set("milp.nodes", static_cast<double>(counters.milp_nodes), "count");
  report.set("milp.dive_lp_solves", static_cast<double>(counters.dive_lp_solves), "count");
  report.set("milp.cutoff_prunes", static_cast<double>(counters.cutoff_prunes), "count");
  report.set("milp.bound_prunes", static_cast<double>(counters.bound_prunes), "count");
  report.set("milp.solve_s", counters.milp_layer_solve_s, "s");
  report.set("lp.pivots", static_cast<double>(counters.lp_pivots), "count");
  report.set("lp.refactorizations", static_cast<double>(counters.lp_refactorizations),
             "count");
  report.set("lp.warm_solves", static_cast<double>(counters.lp_warm_solves), "count");
  report.set("lp.cold_solves", static_cast<double>(counters.lp_cold_solves), "count");
}

}  // namespace perfbench
