// The routing plane: an array of rectangular cells (Section IV-B2).
//
// Each cell carries
//   - a blocked flag (component footprints are not routable),
//   - a weight w(i), initialized to the constant w_e and updated to the wash
//     time of the residue left by the last transportation task through it,
//   - a set of occupation time slots T_i = {(st, et)} covering wash flushes,
//     fluid movement, and channel-cache dwells,
//   - the residue fluid last left in it (decides whether a future task needs
//     a wash and how long it takes).
//
// Components connect to the channel network through port cells: the free
// cells 4-adjacent to their footprint boundary.

#pragma once

#include <optional>
#include <vector>

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "biochip/fluid.hpp"
#include "biochip/wash_model.hpp"
#include "place/placement.hpp"
#include "util/geometry.hpp"
#include "util/interval_set.hpp"

namespace fbmb {

struct CellState {
  bool blocked = false;
  double weight = 0.0;       ///< w(i); starts at ChipSpec::initial_cell_weight
  IntervalSet occupancy;     ///< T_i, the occupation time slots
  std::optional<Fluid> residue;  ///< fluid last left in the cell
  /// Wash time of `residue` under the wash model it was routed with,
  /// stored with it by the router core (RouterCore::occupy) so that no
  /// probe recomputes it; 0 while the cell is clean.
  double residue_wash = 0.0;
};

class RoutingGrid {
 public:
  /// Builds the grid from a legal placement: footprints become blockages,
  /// all weights start at spec.initial_cell_weight.
  RoutingGrid(const ChipSpec& spec, const Allocation& allocation,
              const Placement& placement);

  int width() const { return width_; }
  int height() const { return height_; }

  bool in_bounds(const Point& p) const {
    return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_;
  }
  bool blocked(const Point& p) const { return cell(p).blocked; }

  const CellState& cell(const Point& p) const {
    return cells_[index(p)];
  }
  CellState& cell(const Point& p) { return cells_[index(p)]; }

  /// Free cells 4-adjacent to the component's footprint (its channel ports).
  /// Deterministic order (perimeter scan). Empty if the component is walled
  /// in — placement legality with spacing >= 1 prevents that.
  std::vector<Point> ports(ComponentId id) const;

  /// Clears every cell's routing-produced state — occupancy slots, residue
  /// and its wash, weight back to spec().initial_cell_weight — leaving the
  /// static state (dimensions, blockages) untouched. Equivalent to
  /// reconstructing the grid from the same placement, without the
  /// allocation; the incremental fixpoint router calls this between rounds.
  /// Each cell keeps its occupancy storage, so later rounds reserve
  /// without growing the vectors again.
  void reset_transients();

  /// 4-neighbourhood of p, filtered to in-bounds cells.
  std::vector<Point> neighbors(const Point& p) const;

  /// Wash time a task carrying `fluid` must spend on this cell before using
  /// it: 0 if the cell is clean or holds the same fluid's residue, else the
  /// wash time of the residue under `wash_model`.
  double wash_needed(const Point& p, const Fluid& fluid,
                     const WashModel& wash_model) const;

  const Allocation* allocation() const { return allocation_; }
  const Placement* placement() const { return placement_; }
  const ChipSpec& spec() const { return spec_; }

 private:
  std::size_t index(const Point& p) const {
    return static_cast<std::size_t>(p.y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(p.x);
  }

  int width_ = 0;
  int height_ = 0;
  ChipSpec spec_;
  const Allocation* allocation_ = nullptr;
  const Placement* placement_ = nullptr;
  std::vector<CellState> cells_;
};

}  // namespace fbmb
