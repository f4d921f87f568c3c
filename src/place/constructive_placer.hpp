// Baseline placement: construction by correction (Section V).
//
// The BA comparison flow "generates an initial solution and then corrects
// those unsatisfactory component positions sequentially". We reproduce that:
// a deterministic shelf-packed initial floorplan, followed by sequential
// correction passes in which each component is greedily relocated to the
// legal position minimizing its total unweighted Manhattan wirelength to
// connected components. Unlike the SA placer, BA knows nothing about
// connection priorities (Eq. 4): all nets weigh the same, so concurrency
// and wash time do not influence the floorplan.
//
// The correction loop is incremental: per visit it builds separable x / y
// wirelength tables, tests an origin's cost before its legality, and
// answers legality from an occupancy grid. It is bit-identical to the
// original full-rescan loop, kept as place_components_baseline_reference
// (oracle/reference_placer.hpp); docs/ALGORITHMS.md §2 gives the argument.

#pragma once

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "place/placement.hpp"
#include "schedule/types.hpp"

namespace fbmb {

struct ConstructivePlacerOptions {
  int correction_passes = 3;
};

/// `spec` must have a fixed grid (throws std::invalid_argument otherwise)
/// and a non-negative component_spacing, so that legal footprints are
/// disjoint. Throws std::runtime_error if the allocation does not fit.
Placement place_components_baseline(
    const Allocation& allocation, const Schedule& schedule,
    const ChipSpec& spec, const ConstructivePlacerOptions& options = {});

}  // namespace fbmb
