// The paper's per-layer ILP on the paper's layers: the layer-0 MILPs of
// Table-2 cases 2 and 3, captured through core::LayerSolveCache at layer
// thresholds t=10 and t=5, must close to their known optima in exactly the
// known number of branch-and-bound nodes. The node counts pin the whole LP
// path (pivot choices, bases, refactorizations): a change that perturbs any
// floating-point result of the revised simplex shows up here as node drift
// even when the optimum stays the same.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "assays/benchmarks.hpp"
#include "core/ilp_layer_model.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "milp/branch_and_bound.hpp"

namespace cohls::core {
namespace {

/// Builds the MILP of the first layer (of at most 12 operations) that the
/// flow offers it, with enough new device slots for every indeterminate
/// operation to get its own device, and never answers.
class FirstLayerRecorder final : public LayerSolveCache {
 public:
  std::optional<LayerOutcome> lookup(const LayerSolveContext& context) override {
    const schedule::LayerRequest& request = context.request;
    if (model_.has_value() || request.ops.size() > 12 || request.binds || request.new_config) {
      return std::nullopt;
    }
    IlpLayerInputs inputs;
    inputs.layer = request.layer;
    inputs.ops = request.ops;
    for (const DeviceId id : request.usable_devices) {
      inputs.fixed_devices.emplace_back(id, context.inventory.device(id).config);
    }
    inputs.hints = request.hints;
    int indeterminate = 0;
    for (const OperationId id : request.ops) {
      indeterminate += context.assay.operation(id).indeterminate() ? 1 : 0;
    }
    const int free_slots = context.inventory.max_devices() - context.inventory.size();
    inputs.new_slots = std::max(
        request.allow_new_devices ? std::min(context.engine.ilp_new_slots, free_slots) : 0,
        indeterminate);
    inputs.prior_binding = request.prior_binding;
    inputs.existing_paths = request.existing_paths;
    const IlpLayerModel ilp(context.assay, std::move(inputs), context.transport, context.costs);
    model_ = ilp.model();
    bounds_ = ilp.bound_provider();
    return std::nullopt;
  }
  void store(const LayerSolveContext&, const LayerOutcome&) override {}

  std::optional<milp::MilpModel> model_;
  std::shared_ptr<const milp::NodeBoundProvider> bounds_;
};

struct ClosureCase {
  const char* name;
  bool rt_qpcr;  ///< case 3 (RT-qPCR) instead of case 2 (gene expression)
  int threshold;
  double optimum;
  long nodes;
};

class LayerClosure : public ::testing::TestWithParam<ClosureCase> {};

TEST_P(LayerClosure, ClosesToTheKnownOptimumInTheKnownNodeCount) {
  const ClosureCase& c = GetParam();
  SynthesisOptions options;
  options.layering.indeterminate_threshold = c.threshold;
  FirstLayerRecorder recorder;
  options.layer_cache = &recorder;
  (void)synthesize(c.rt_qpcr ? assays::rt_qpcr_assay() : assays::gene_expression_assay(),
                   options);
  ASSERT_TRUE(recorder.model_.has_value()) << "no layer MILP captured";

  milp::MilpOptions milp_options;
  milp_options.max_nodes = 5000;
  milp_options.time_limit_seconds = 600.0;
  milp_options.bounds = recorder.bounds_;
  const milp::MilpSolution solution = milp::solve_milp(*recorder.model_, milp_options);
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  EXPECT_NEAR(solution.objective, c.optimum, 1e-6);
  EXPECT_EQ(solution.nodes, c.nodes);
  EXPECT_GT(solution.lp_refactorizations, 0);
  EXPECT_GT(solution.lp_factor_nonzeros, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Table2Layer0, LayerClosure,
    ::testing::Values(ClosureCase{"case2_t5", false, 5, 280.0, 31},
                      ClosureCase{"case3_t5", true, 5, 278.0, 30},
                      ClosureCase{"case2_t10", false, 10, 550.0, 108},
                      ClosureCase{"case3_t10", true, 10, 548.0, 119}),
    [](const ::testing::TestParamInfo<ClosureCase>& info) { return info.param.name; });

}  // namespace
}  // namespace cohls::core
