#include "route/grid.hpp"

#include <cassert>
#include <stdexcept>

namespace fbmb {

RoutingGrid::RoutingGrid(const ChipSpec& spec, const Allocation& allocation,
                         const Placement& placement)
    : width_(spec.grid_width),
      height_(spec.grid_height),
      spec_(spec),
      allocation_(&allocation),
      placement_(&placement) {
  if (width_ <= 0 || height_ <= 0) {
    throw std::invalid_argument("RoutingGrid needs a fixed, positive grid");
  }
  cells_.resize(static_cast<std::size_t>(width_) *
                static_cast<std::size_t>(height_));
  for (auto& c : cells_) c.weight = spec.initial_cell_weight;
  for (const auto& comp : allocation.components()) {
    const Rect fp = placement.footprint(comp.id, allocation);
    for (int y = fp.bottom(); y < fp.top(); ++y) {
      for (int x = fp.left(); x < fp.right(); ++x) {
        const Point p{x, y};
        assert(in_bounds(p) && "placement must be legal");
        cell(p).blocked = true;
      }
    }
  }
}

void RoutingGrid::reset_transients() {
  for (auto& c : cells_) {
    c.weight = spec_.initial_cell_weight;
    c.occupancy.clear();
    c.residue.reset();
    c.residue_wash = 0.0;
  }
}

std::vector<Point> RoutingGrid::ports(ComponentId id) const {
  const Rect fp = placement_->footprint(id, *allocation_);
  std::vector<Point> out;
  auto consider = [&](const Point& p) {
    if (in_bounds(p) && !blocked(p)) out.push_back(p);
  };
  for (int x = fp.left(); x < fp.right(); ++x) {
    consider({x, fp.bottom() - 1});
    consider({x, fp.top()});
  }
  for (int y = fp.bottom(); y < fp.top(); ++y) {
    consider({fp.left() - 1, y});
    consider({fp.right(), y});
  }
  return out;
}

std::vector<Point> RoutingGrid::neighbors(const Point& p) const {
  std::vector<Point> out;
  out.reserve(4);
  const Point candidates[4] = {
      {p.x + 1, p.y}, {p.x - 1, p.y}, {p.x, p.y + 1}, {p.x, p.y - 1}};
  for (const Point& c : candidates) {
    if (in_bounds(c)) out.push_back(c);
  }
  return out;
}

double RoutingGrid::wash_needed(const Point& p, const Fluid& fluid,
                                const WashModel& wash_model) const {
  const CellState& c = cell(p);
  if (!c.residue) return 0.0;
  if (c.residue->name == fluid.name) return 0.0;  // same fluid: no wash
  return wash_model.wash_time(*c.residue);
}

}  // namespace fbmb
