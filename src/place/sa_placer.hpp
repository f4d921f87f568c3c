// Simulated-annealing placement (Algorithm 2, lines 1-8).
//
// Energy(P) = sum over nets of mdis(i,j) * cp(i,j)   (Eq. 3)
//
// with mdis the center-to-center Manhattan distance and cp the Eq. 4
// connection priority. Moves: translate a random component, rotate it 90
// degrees, or swap two components' origins; only legal candidates (in
// bounds, non-overlapping with spacing) are proposed.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "place/connection_priority.hpp"
#include "place/placement.hpp"
#include "place/placer_core.hpp"
#include "place/sa_engine.hpp"
#include "schedule/types.hpp"

namespace fbmb {

struct PlacerOptions {
  SaOptions sa;               ///< T0=10000, Tmin=1.0, alpha=0.9, Imax=150
  double beta = 0.6;          ///< Eq. 4 concurrency weight
  double gamma = 0.4;         ///< Eq. 4 wash-time weight
  /// Independent SA restarts (different sub-seeds); the lowest-energy
  /// placement wins. Still deterministic for a fixed `seed`.
  int restarts = 3;
  std::uint64_t seed = 1;     ///< deterministic placement per seed
  /// Optional executor for the restart tasks. Each task is self-contained
  /// (restart i seeds its own Rng via fork_seed(seed, i) and writes only
  /// slot i of the result vector), so the executor may run them in any
  /// order or concurrently — the outcome is bit-identical to the serial
  /// default (nullptr: run in index order on the calling thread). Execution
  /// policy only; never part of a result fingerprint.
  std::function<void(std::vector<std::function<void()>>&)> restart_executor;
};

/// Eq. 3 energy of a placement under the given nets, plus
/// compaction_weight * total pairwise Manhattan distance.
double placement_energy(const Placement& placement,
                        const Allocation& allocation,
                        const std::vector<Net>& nets,
                        double compaction_weight = 0.0);

/// A random legal placement (rejection sampling against an occupancy
/// index, with a packed fallback). Throws std::runtime_error if the grid
/// cannot fit the allocation at all.
Placement random_placement(const Allocation& allocation,
                           const ChipSpec& spec, Rng& rng);

/// Full SA placement flow; returns the lowest-energy result over
/// options.restarts independent runs. `spec` must have a fixed grid
/// (ChipSpec::has_fixed_grid); use derive_grid beforehand otherwise.
/// Runs on the incremental PlacerCore; bit-identical to
/// place_components_reference (oracle/reference_placer.hpp). If `stats` is
/// non-null the search counters of every restart are accumulated into it.
Placement place_components(const Allocation& allocation,
                           const Schedule& schedule,
                           const WashModel& wash_model, const ChipSpec& spec,
                           const PlacerOptions& options = {},
                           PlaceStats* stats = nullptr);

/// One polished placement per restart (options.restarts of them), for
/// callers that want to pick by a downstream metric (e.g. routed channel
/// length) instead of placement energy.
std::vector<Placement> place_component_candidates(
    const Allocation& allocation, const Schedule& schedule,
    const WashModel& wash_model, const ChipSpec& spec,
    const PlacerOptions& options = {}, PlaceStats* stats = nullptr);

/// Total footprint area of the allocation including spacing margins; used
/// with derive_grid.
int allocation_area(const Allocation& allocation, int spacing);

}  // namespace fbmb
