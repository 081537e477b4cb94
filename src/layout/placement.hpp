// Potential-chip-layout sketching (contribution III). The paper observes
// that transportation time depends on channel lengths, which depend on the
// physical layout — and that more-used paths should be laid out shorter.
// This module makes that concrete: devices are placed on a grid by
// simulated annealing minimizing usage-weighted Manhattan wirelength, so
// frequently-communicating devices end up adjacent. The resulting distances
// feed `transport_from_layout`, a physically-grounded alternative to the
// rank-based arithmetic-progression refinement.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "model/assay.hpp"
#include "schedule/types.hpp"
#include "util/rng.hpp"

namespace cohls::layout {

struct GridPosition {
  int x = 0;
  int y = 0;

  friend bool operator==(GridPosition, GridPosition) = default;
};

struct PlacementOptions {
  /// Grid side length; 0 chooses the smallest square that fits the devices.
  int grid_width = 0;
  /// Simulated-annealing sweeps (each tries one move per device).
  int sweeps = 200;
  std::uint64_t seed = 1;
};

/// How often each inter-device path carries a transfer in a result.
[[nodiscard]] std::map<schedule::DevicePath, int> path_usage(
    const schedule::SynthesisResult& result, const model::Assay& assay);

/// A device-to-grid-cell assignment.
class Placement {
 public:
  Placement(std::vector<DeviceId> devices, std::vector<GridPosition> positions,
            int grid_width);

  [[nodiscard]] int grid_width() const { return grid_width_; }
  [[nodiscard]] const std::vector<DeviceId>& devices() const { return devices_; }
  [[nodiscard]] GridPosition position(DeviceId device) const;

  /// Manhattan distance between two placed devices, in grid cells.
  [[nodiscard]] int distance(DeviceId a, DeviceId b) const;

  /// Usage-weighted total wirelength (the annealer's objective).
  [[nodiscard]] double wirelength(
      const std::map<schedule::DevicePath, int>& usage) const;

  /// ASCII rendering of the grid ('.' = empty, hex digit = device id).
  [[nodiscard]] std::string to_ascii() const;

 private:
  std::vector<DeviceId> devices_;
  std::vector<GridPosition> positions_;  // parallel to devices_
  int grid_width_;
};

/// Places the result's used devices by simulated annealing (deterministic
/// for a fixed seed).
[[nodiscard]] Placement place_devices(const schedule::SynthesisResult& result,
                                      const model::Assay& assay,
                                      const PlacementOptions& options = {});

}  // namespace cohls::layout
