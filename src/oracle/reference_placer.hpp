// Reference SA placer: the original full-recompute implementation.
//
// `place_components` now runs on PlacerCore (place/placer_core.hpp), which
// evaluates proposals incrementally. This header keeps the original
// implementation — copy-based proposals, O(nets) full-energy evaluation with
// an O(n^2) pairwise compaction rescan, O(n) legality scans, and the
// placed-id rejection sampler — verbatim as a test oracle. The two are
// bit-identical by construction: tests/placer_equivalence_test.cpp
// asserts identical placements and energies per paper benchmark, and the
// fuzz oracle (src/testgen) identical placements per generated scenario.
//
// The reference keeps no PlaceStats (mirroring route_transports_reference,
// which keeps no RouteStats): counters are telemetry, and the oracle stays
// frozen.
//
// place_components_baseline_reference is BA's original construction-by-
// correction loop, the oracle for the incremental place_components_baseline
// (place/constructive_placer.hpp): every candidate origin rescans all
// components for legality and rebuilds its neighbours' footprints for the
// cost.
//
// concurrent_transport_count is the pairwise form of Eq. 4's nt_k term,
// the oracle for the sweep in concurrent_transport_counts
// (place/connection_priority.hpp).

#pragma once

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "place/constructive_placer.hpp"
#include "place/placement.hpp"
#include "place/sa_placer.hpp"
#include "schedule/types.hpp"

namespace fbmb {

/// Original full SA placement flow (lowest-energy restart wins). Same
/// contract as place_components; bit-identical output for equal inputs.
Placement place_components_reference(const Allocation& allocation,
                                     const Schedule& schedule,
                                     const WashModel& wash_model,
                                     const ChipSpec& spec,
                                     const PlacerOptions& options = {});

/// Original per-restart candidate list. Same contract as
/// place_component_candidates; bit-identical output for equal inputs.
std::vector<Placement> place_component_candidates_reference(
    const Allocation& allocation, const Schedule& schedule,
    const WashModel& wash_model, const ChipSpec& spec,
    const PlacerOptions& options = {});

/// Original BA correction loop. Same contract as place_components_baseline;
/// bit-identical output for equal inputs.
Placement place_components_baseline_reference(
    const Allocation& allocation, const Schedule& schedule,
    const ChipSpec& spec, const ConstructivePlacerOptions& options = {});

/// Number of transports whose movement window [departure, arrival) overlaps
/// transport `index`'s (the nt_k term). Quadratic over all transports;
/// kept as the oracle for concurrent_transport_counts.
int concurrent_transport_count(const std::vector<TransportTask>& transports,
                               std::size_t index);

}  // namespace fbmb
