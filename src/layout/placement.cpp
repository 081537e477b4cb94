#include "layout/placement.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "util/check.hpp"

namespace cohls::layout {

namespace {

/// Annealing temperature of the first sweep; each sweep multiplies it by
/// kCooling.
constexpr double kInitialTemperature = 8.0;
constexpr double kCooling = 0.95;

}  // namespace

std::map<schedule::DevicePath, int> path_usage(const schedule::SynthesisResult& result,
                                               const model::Assay& assay) {
  std::map<schedule::DevicePath, int> usage;
  const auto binding = result.binding();
  for (const auto& [op, device] : binding) {
    for (const OperationId child : assay.children(op)) {
      const auto it = binding.find(child);
      if (it != binding.end() && it->second != device) {
        ++usage[schedule::make_path(device, it->second)];
      }
    }
  }
  return usage;
}

Placement::Placement(std::vector<DeviceId> devices, std::vector<GridPosition> positions,
                     int grid_width)
    : devices_(std::move(devices)), positions_(std::move(positions)),
      grid_width_(grid_width) {
  COHLS_EXPECT(devices_.size() == positions_.size(),
               "every device needs exactly one position");
  COHLS_EXPECT(grid_width_ >= 1, "grid must have positive width");
  std::set<std::pair<int, int>> taken;
  for (const GridPosition p : positions_) {
    COHLS_EXPECT(p.x >= 0 && p.x < grid_width_ && p.y >= 0 && p.y < grid_width_,
                 "position outside the grid");
    COHLS_EXPECT(taken.insert({p.x, p.y}).second, "two devices share a grid cell");
  }
}

GridPosition Placement::position(DeviceId device) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i] == device) {
      return positions_[i];
    }
  }
  throw PreconditionError("device is not placed");
}

int Placement::distance(DeviceId a, DeviceId b) const {
  const GridPosition pa = position(a);
  const GridPosition pb = position(b);
  return std::abs(pa.x - pb.x) + std::abs(pa.y - pb.y);
}

double Placement::wirelength(const std::map<schedule::DevicePath, int>& usage) const {
  double total = 0.0;
  for (const auto& [path, count] : usage) {
    total += static_cast<double>(count) * distance(path.first, path.second);
  }
  return total;
}

std::string Placement::to_ascii() const {
  std::vector<std::string> grid(static_cast<std::size_t>(grid_width_),
                                std::string(static_cast<std::size_t>(grid_width_), '.'));
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const int id = devices_[i].value();
    const char mark = id < 10 ? static_cast<char>('0' + id)
                              : (id < 36 ? static_cast<char>('a' + id - 10) : '*');
    grid[static_cast<std::size_t>(positions_[i].y)][static_cast<std::size_t>(
        positions_[i].x)] = mark;
  }
  std::ostringstream out;
  for (const std::string& row : grid) {
    out << row << '\n';
  }
  return out.str();
}

Placement place_devices(const schedule::SynthesisResult& result,
                        const model::Assay& assay, const PlacementOptions& options) {
  COHLS_EXPECT(options.sweeps >= 0, "sweeps must be non-negative");

  std::set<DeviceId> used;
  for (const auto& layer : result.layers) {
    for (const auto& item : layer.items) {
      used.insert(item.device);
    }
  }
  std::vector<DeviceId> devices(used.begin(), used.end());
  COHLS_EXPECT(!devices.empty(), "cannot place an empty result");

  int width = options.grid_width;
  if (width == 0) {
    width = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(devices.size()))));
  }
  COHLS_EXPECT(static_cast<std::size_t>(width) * static_cast<std::size_t>(width) >=
                   devices.size(),
               "grid too small for the devices");

  const auto usage = path_usage(result, assay);
  // Dense index per device for the annealer's working arrays.
  std::map<DeviceId, std::size_t> index;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    index[devices[i]] = i;
  }
  struct Edge {
    std::size_t a;
    std::size_t b;
    int weight;
  };
  std::vector<Edge> edges;
  for (const auto& [path, count] : usage) {
    // Paths can touch devices absent from `devices` only if the result is
    // inconsistent; Placement's invariants would catch that later anyway.
    edges.push_back(Edge{index.at(path.first), index.at(path.second), count});
  }

  // cell_of[device index] = linear grid cell; device_at[cell] = device or npos.
  const std::size_t cells = static_cast<std::size_t>(width) * static_cast<std::size_t>(width);
  constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  std::vector<std::size_t> cell_of(devices.size());
  std::vector<std::size_t> device_at(cells, kEmpty);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    cell_of[i] = i;
    device_at[i] = i;
  }

  const auto cell_distance = [width](std::size_t a, std::size_t b) {
    const int ax = static_cast<int>(a) % width;
    const int ay = static_cast<int>(a) / width;
    const int bx = static_cast<int>(b) % width;
    const int by = static_cast<int>(b) / width;
    return std::abs(ax - bx) + std::abs(ay - by);
  };
  const auto cost = [&]() {
    double total = 0.0;
    for (const Edge& e : edges) {
      total += static_cast<double>(e.weight) * cell_distance(cell_of[e.a], cell_of[e.b]);
    }
    return total;
  };

  Rng rng{options.seed};
  double current = cost();
  double temperature = kInitialTemperature;
  for (int sweep = 0; sweep < options.sweeps; ++sweep) {
    for (std::size_t move = 0; move < devices.size(); ++move) {
      const std::size_t d = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(devices.size()) - 1));
      const std::size_t target = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cells) - 1));
      const std::size_t source = cell_of[d];
      if (target == source) {
        continue;
      }
      const std::size_t other = device_at[target];
      // Apply the move (swap or relocation), re-evaluate, maybe revert.
      device_at[source] = other;
      device_at[target] = d;
      cell_of[d] = target;
      if (other != kEmpty) {
        cell_of[other] = source;
      }
      const double changed = cost();
      const double delta = changed - current;
      const bool accept =
          delta <= 0.0 || rng.uniform_double() < std::exp(-delta / std::max(temperature, 1e-9));
      if (accept) {
        current = changed;
      } else {
        device_at[target] = other;
        device_at[source] = d;
        cell_of[d] = source;
        if (other != kEmpty) {
          cell_of[other] = target;
        }
      }
    }
    temperature *= kCooling;
  }

  std::vector<GridPosition> positions(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    positions[i] = GridPosition{static_cast<int>(cell_of[i]) % width,
                                static_cast<int>(cell_of[i]) / width};
  }
  return Placement(std::move(devices), std::move(positions), width);
}

}  // namespace cohls::layout
