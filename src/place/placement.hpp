// Placement state: component positions on the routing grid.
//
// Placement assigns each allocated component an origin cell and an optional
// 90-degree rotation. Legality = every footprint inside the chip boundary
// and pairwise separation of at least ChipSpec::component_spacing cells
// (flow channels must be able to pass between neighbouring components).

#pragma once

#include <string>
#include <vector>

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "util/geometry.hpp"

namespace fbmb {

struct PlacedComponent {
  Point origin;          ///< lower-left cell of the footprint
  bool rotated = false;  ///< true: width/height swapped

  friend bool operator==(const PlacedComponent&,
                         const PlacedComponent&) = default;
};

/// Positions for every component in an Allocation (indexed by ComponentId).
class Placement {
 public:
  Placement() = default;
  explicit Placement(std::size_t component_count)
      : placed_(component_count) {}

  std::size_t size() const { return placed_.size(); }

  const PlacedComponent& at(ComponentId id) const {
    return placed_.at(static_cast<std::size_t>(id.value));
  }
  PlacedComponent& at(ComponentId id) {
    return placed_.at(static_cast<std::size_t>(id.value));
  }

  /// Footprint rectangle of `id` given its rotation.
  Rect footprint(ComponentId id, const Allocation& allocation) const;

  /// True iff all footprints are inside the grid and pairwise separated by
  /// >= spec.component_spacing cells.
  bool is_legal(const Allocation& allocation, const ChipSpec& spec) const;

  /// Violated placement invariants, for diagnostics (empty = legal).
  std::vector<std::string> violations(const Allocation& allocation,
                                      const ChipSpec& spec) const;

  /// Sum over all component pairs of center-to-center Manhattan distance
  /// (unweighted spread; the SA placer's compaction term).
  long total_pairwise_distance(const Allocation& allocation) const;

  /// ASCII sketch of the floorplan (component ids as letters). Cells in
  /// `overlay` are drawn with `overlay_mark` where free (routed channels,
  /// highlights, ...).
  std::string to_ascii(const Allocation& allocation, const ChipSpec& spec,
                       const std::vector<Point>& overlay = {},
                       char overlay_mark = '+') const;

  /// Same components at the same origins and rotations.
  friend bool operator==(const Placement&, const Placement&) = default;

 private:
  std::vector<PlacedComponent> placed_;
};

/// Deterministic row-major shelf packing, every component unrotated and
/// `spec.component_spacing` cells from its neighbours and the rim. Throws
/// std::runtime_error if the result is not legal (the grid is too small).
Placement shelf_pack(const Allocation& allocation, const ChipSpec& spec);

}  // namespace fbmb
