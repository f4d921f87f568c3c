#include "place/constructive_placer.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "place/placer_core.hpp"

namespace fbmb {

namespace {

/// One axis of the visit's wirelength: cost[v] = Σ |v + half − c| over the
/// centre coordinates `centres`, for every origin v in [0, size).
void fill_axis_cost(std::vector<long>& cost, int size, int half,
                    const std::vector<int>& centres) {
  cost.assign(static_cast<std::size_t>(std::max(0, size)), 0);
  for (std::size_t v = 0; v < cost.size(); ++v) {
    const int centre = static_cast<int>(v) + half;
    long sum = 0;
    for (const int c : centres) sum += std::abs(centre - c);
    cost[v] = sum;
  }
}

}  // namespace

Placement place_components_baseline(
    const Allocation& allocation, const Schedule& schedule,
    const ChipSpec& spec, const ConstructivePlacerOptions& options) {
  if (!spec.has_fixed_grid()) {
    throw std::invalid_argument(
        "place_components_baseline requires a fixed grid");
  }
  if (allocation.empty()) return Placement{};

  // Unweighted adjacency: which components exchange fluids at all.
  std::set<std::pair<int, int>> edges;
  for (const auto& t : schedule.transports) {
    if (t.from == t.to) continue;
    edges.insert({std::min(t.from.value, t.to.value),
                  std::max(t.from.value, t.to.value)});
  }
  std::vector<std::vector<ComponentId>> neighbors(allocation.size());
  for (const auto& [a, b] : edges) {
    neighbors[static_cast<std::size_t>(a)].push_back(ComponentId{b});
    neighbors[static_cast<std::size_t>(b)].push_back(ComponentId{a});
  }

  Placement placement = shelf_pack(allocation, spec);

  // Footprint centres and an occupancy grid of every footprint, kept in
  // step with `placement`. Every footprint stays inside the chip and the
  // footprints stay disjoint (spacing >= 0): the packing is checked legal
  // and a component only moves to a legal origin.
  std::vector<int> cx(allocation.size());
  std::vector<int> cy(allocation.size());
  OccupancyIndex occupancy(spec.grid_width, spec.grid_height);
  for (const auto& comp : allocation.components()) {
    const Rect fp = placement.footprint(comp.id, allocation);
    cx[static_cast<std::size_t>(comp.id.value)] = fp.center().x;
    cy[static_cast<std::size_t>(comp.id.value)] = fp.center().y;
    occupancy.insert(fp, comp.id.value);
  }

  // Sequential correction: relocate each component to the legal origin
  // with the least sum of centre-to-centre Manhattan distances to its
  // neighbours, or to every other component if it has none. Only the
  // visited component moves, so the cost is separable: Σ|x + w/2 − cx_n|
  // + Σ|y + h/2 − cy_n|, one table per axis and rotation. Origins are
  // scanned in (rotation, y, x) order and a strictly lower cost wins, so
  // ties keep the earliest; the legality probe runs only for an origin
  // that would win.
  std::vector<int> xs;
  std::vector<int> ys;
  std::vector<long> cost_x;
  std::vector<long> cost_y;
  for (int pass = 0; pass < options.correction_passes; ++pass) {
    bool improved = false;
    for (const auto& comp : allocation.components()) {
      const int id = comp.id.value;
      const auto slot = static_cast<std::size_t>(id);
      xs.clear();
      ys.clear();
      if (!neighbors[slot].empty()) {
        for (const ComponentId n : neighbors[slot]) {
          xs.push_back(cx[static_cast<std::size_t>(n.value)]);
          ys.push_back(cy[static_cast<std::size_t>(n.value)]);
        }
      } else {
        for (std::size_t other = 0; other < allocation.size(); ++other) {
          if (other == slot) continue;
          xs.push_back(cx[other]);
          ys.push_back(cy[other]);
        }
      }
      long best_cost = 0;
      for (std::size_t k = 0; k < xs.size(); ++k) {
        best_cost += std::abs(cx[slot] - xs[k]) + std::abs(cy[slot] - ys[k]);
      }
      const PlacedComponent original = placement.at(comp.id);
      PlacedComponent best = original;
      for (int rot = 0; rot < 2; ++rot) {
        const bool rotated = rot == 1;
        const int w = rotated ? comp.height : comp.width;
        const int h = rotated ? comp.width : comp.height;
        fill_axis_cost(cost_x, spec.grid_width - w + 1, w / 2, xs);
        fill_axis_cost(cost_y, spec.grid_height - h + 1, h / 2, ys);
        for (std::size_t y = 0; y < cost_y.size(); ++y) {
          for (std::size_t x = 0; x < cost_x.size(); ++x) {
            const long c = cost_y[y] + cost_x[x];
            if (c >= best_cost) continue;
            const Rect fp{static_cast<int>(x), static_cast<int>(y), w, h};
            if (occupancy.occupied(fp.inflated(spec.component_spacing), id)) {
              continue;
            }
            best_cost = c;
            best = {{fp.x, fp.y}, rotated};
          }
        }
      }
      if (!(best.origin == original.origin &&
            best.rotated == original.rotated)) {
        occupancy.remove(placement.footprint(comp.id, allocation), id);
        placement.at(comp.id) = best;
        const Rect fp = placement.footprint(comp.id, allocation);
        occupancy.insert(fp, id);
        cx[slot] = fp.center().x;
        cy[slot] = fp.center().y;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return placement;
}

}  // namespace fbmb
