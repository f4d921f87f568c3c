#include "place/placement.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace fbmb {

Rect Placement::footprint(ComponentId id, const Allocation& allocation) const {
  const Component& c = allocation.component(id);
  const PlacedComponent& pc = at(id);
  const int w = pc.rotated ? c.height : c.width;
  const int h = pc.rotated ? c.width : c.height;
  return {pc.origin.x, pc.origin.y, w, h};
}

bool Placement::is_legal(const Allocation& allocation,
                         const ChipSpec& spec) const {
  return violations(allocation, spec).empty();
}

std::vector<std::string> Placement::violations(const Allocation& allocation,
                                               const ChipSpec& spec) const {
  std::vector<std::string> out;
  const Rect chip{0, 0, spec.grid_width, spec.grid_height};
  for (const auto& comp : allocation.components()) {
    const Rect fp = footprint(comp.id, allocation);
    if (!chip.contains(fp)) {
      out.push_back(comp.name + " out of bounds at " + to_string(fp));
    }
  }
  const int spacing = spec.component_spacing;
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    for (std::size_t j = i + 1; j < allocation.size(); ++j) {
      const ComponentId a{static_cast<int>(i)};
      const ComponentId b{static_cast<int>(j)};
      const Rect fa = footprint(a, allocation).inflated(spacing);
      const Rect fb = footprint(b, allocation);
      if (fa.overlaps(fb)) {
        out.push_back(allocation.component(a).name + " and " +
                      allocation.component(b).name +
                      " overlap or violate spacing");
      }
    }
  }
  return out;
}

long Placement::total_pairwise_distance(const Allocation& allocation) const {
  long sum = 0;
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    for (std::size_t j = i + 1; j < allocation.size(); ++j) {
      sum += manhattan_distance(
          footprint(ComponentId{static_cast<int>(i)}, allocation),
          footprint(ComponentId{static_cast<int>(j)}, allocation));
    }
  }
  return sum;
}

std::string Placement::to_ascii(const Allocation& allocation,
                                const ChipSpec& spec,
                                const std::vector<Point>& overlay,
                                char overlay_mark) const {
  std::vector<std::string> rows(
      static_cast<std::size_t>(spec.grid_height),
      std::string(static_cast<std::size_t>(spec.grid_width), '.'));
  for (const Point& p : overlay) {
    if (p.y >= 0 && p.y < spec.grid_height && p.x >= 0 &&
        p.x < spec.grid_width) {
      rows[static_cast<std::size_t>(p.y)][static_cast<std::size_t>(p.x)] =
          overlay_mark;
    }
  }
  for (const auto& comp : allocation.components()) {
    const Rect fp = footprint(comp.id, allocation);
    const char mark = static_cast<char>(
        comp.id.value < 26 ? 'A' + comp.id.value : 'a' + (comp.id.value - 26));
    for (int y = fp.bottom(); y < fp.top(); ++y) {
      for (int x = fp.left(); x < fp.right(); ++x) {
        if (y >= 0 && y < spec.grid_height && x >= 0 && x < spec.grid_width) {
          rows[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] =
              mark;
        }
      }
    }
  }
  std::ostringstream os;
  // Print top row last-first so y grows upward.
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) os << *it << '\n';
  return os.str();
}

Placement shelf_pack(const Allocation& allocation, const ChipSpec& spec) {
  Placement placement(allocation.size());
  const int spacing = spec.component_spacing;
  int x = spacing;
  int y = spacing;
  int row_height = 0;
  for (const auto& comp : allocation.components()) {
    if (x + comp.width + spacing > spec.grid_width) {
      x = spacing;
      y += row_height + spacing;
      row_height = 0;
    }
    placement.at(comp.id) = {{x, y}, false};
    x += comp.width + spacing;
    row_height = std::max(row_height, comp.height);
  }
  if (!placement.is_legal(allocation, spec)) {
    throw std::runtime_error(
        "allocation does not fit on the chip grid; enlarge ChipSpec");
  }
  return placement;
}

}  // namespace fbmb
