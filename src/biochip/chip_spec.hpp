// Chip-level design parameters.
//
// ChipSpec bundles the geometric and timing constants of a synthesis run:
// routing-grid dimensions, the cell pitch used to convert channel length to
// millimetres, and the constant inter-component transportation time t_c the
// scheduler assumes before channel lengths are known (Section IV-A).

#pragma once

#include <cassert>

namespace fbmb {

struct ChipSpec {
  /// Routing grid dimensions in cells. 0 means "derive from allocation"
  /// (see derive_grid_for_area).
  int grid_width = 0;
  int grid_height = 0;

  /// Physical length of one grid-cell edge in millimetres. Channel-length
  /// reporting multiplies cell count by this pitch.
  double cell_pitch_mm = 10.0;

  /// Constant transportation time between components, seconds (t_c).
  double transport_time = 2.0;

  /// Initial routing cell weight w_e (Section IV-B2 / Eq. 5 weights).
  double initial_cell_weight = 10.0;

  /// Minimum spacing between component footprints, in cells.
  int component_spacing = 1;

  /// Number of tail cells of a routed path that hold a cached fluid.
  /// A fluid plug occupies only a short channel segment near the
  /// destination while cached, not the whole path.
  int cache_segment_cells = 3;

  bool has_fixed_grid() const { return grid_width > 0 && grid_height > 0; }

  friend bool operator==(const ChipSpec&, const ChipSpec&) = default;
};

/// Derives a near-square grid whose area is `inflation` times the total
/// component area (spacing included), clamped to at least `min_side` cells
/// per side. Used when ChipSpec does not pin the grid.
ChipSpec derive_grid(ChipSpec spec, int total_component_area,
                     double inflation = 4.0, int min_side = 12);

}  // namespace fbmb
