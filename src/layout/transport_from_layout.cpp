#include "layout/transport_from_layout.hpp"

#include "util/check.hpp"

namespace cohls::layout {

namespace {

/// Transport time of edges whose endpoints are not in the placement.
constexpr Minutes kFallback{3};

}  // namespace

schedule::TransportPlan transport_from_layout(const Placement& placement,
                                              const schedule::SynthesisResult& result,
                                              const model::Assay& assay,
                                              const LayoutTransportOptions& options) {
  COHLS_EXPECT(options.minimum >= Minutes{0} && options.per_cell >= Minutes{0},
               "layout transport times must be non-negative");
  schedule::TransportPlan plan(kFallback);
  const auto binding = result.binding();
  for (const model::Operation& op : assay.operations()) {
    const auto parent_device = binding.find(op.id());
    if (parent_device == binding.end()) {
      continue;
    }
    for (const OperationId child : assay.children(op.id())) {
      const auto child_device = binding.find(child);
      if (child_device == binding.end()) {
        continue;
      }
      if (parent_device->second == child_device->second) {
        plan.set_edge_time(op.id(), child, Minutes{0});
        continue;
      }
      const int distance = placement.distance(parent_device->second, child_device->second);
      plan.set_edge_time(op.id(), child,
                         options.minimum + (distance - 1) * options.per_cell);
    }
  }
  return plan;
}

}  // namespace cohls::layout
