// Layout-driven transportation estimation: instead of mapping path-usage
// ranks onto an arithmetic progression (Sec. 4.1), derive each edge's
// transfer time from the placed channel length — `minimum` plus
// `per_cell` minutes per grid cell beyond adjacency. Same-device transfers
// are zero, like the paper's refinement.
#pragma once

#include "layout/placement.hpp"
#include "schedule/transport_plan.hpp"

namespace cohls::layout {

struct LayoutTransportOptions {
  /// Base transfer time of an adjacent (distance-1) device pair.
  Minutes minimum{1};
  /// Additional minutes per extra grid cell of channel length.
  Minutes per_cell{1};
};

[[nodiscard]] schedule::TransportPlan transport_from_layout(
    const Placement& placement, const schedule::SynthesisResult& result,
    const model::Assay& assay, const LayoutTransportOptions& options = {});

}  // namespace cohls::layout
