#include "place/sa_placer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "place/placer_core.hpp"
#include "trace/trace.hpp"
#include "util/logging.hpp"

namespace fbmb {

int allocation_area(const Allocation& allocation, int spacing) {
  int area = 0;
  for (const auto& comp : allocation.components()) {
    area += (comp.width + spacing) * (comp.height + spacing);
  }
  return area;
}

double placement_energy(const Placement& placement,
                        const Allocation& allocation,
                        const std::vector<Net>& nets,
                        double compaction_weight) {
  double energy = 0.0;
  for (const Net& net : nets) {
    const int mdis = manhattan_distance(
        placement.footprint(net.a, allocation),
        placement.footprint(net.b, allocation));
    energy += static_cast<double>(mdis) * net.priority;
  }
  if (compaction_weight > 0.0) {
    energy += compaction_weight *
              static_cast<double>(placement.total_pairwise_distance(allocation));
  }
  return energy;
}

Placement random_placement(const Allocation& allocation,
                           const ChipSpec& spec, Rng& rng) {
  Placement placement(allocation.size());
  // Place components one by one at random legal spots. The occupancy index
  // answers each attempt's clash check from the candidate's own inflated
  // footprint cells; only successfully placed components are inserted, so —
  // like the placed-id scan this replaces — slots not yet placed are never
  // compared against. Origins are drawn in [0, grid - w/h], so candidates
  // are always in bounds and the spacing probe is the only rejection.
  constexpr int kTriesPerComponent = 200;
  OccupancyIndex occupancy(spec.grid_width, spec.grid_height);
  bool ok = true;
  for (const auto& comp : allocation.components()) {
    bool placed = false;
    for (int attempt = 0; attempt < kTriesPerComponent; ++attempt) {
      const bool rotated = rng.chance(0.5);
      const int w = rotated ? comp.height : comp.width;
      const int h = rotated ? comp.width : comp.height;
      if (spec.grid_width - w < 0 || spec.grid_height - h < 0) break;
      const Point origin{rng.uniform_int(0, spec.grid_width - w),
                         rng.uniform_int(0, spec.grid_height - h)};
      const Rect fp{origin.x, origin.y, w, h};
      if (occupancy.occupied(fp.inflated(spec.component_spacing))) continue;
      placement.at(comp.id) = {origin, rotated};
      occupancy.insert(fp, comp.id.value);
      placed = true;
      break;
    }
    if (!placed) {
      ok = false;
      break;
    }
  }
  if (ok && placement.is_legal(allocation, spec)) return placement;
  // Rejection sampling found no random legal start: fall back to packing.
  return shelf_pack(allocation, spec);
}

namespace {

/// Domain-separation tag XORed into the user seed before forking
/// per-restart streams, so another subsystem forking from the same seed
/// draws unrelated randomness.
constexpr std::uint64_t kSeedDomain = seed_domain("SA_PLACE");

/// Shared implementation: one polished SA run per restart, each on its own
/// PlacerCore (restarts may execute concurrently; cores share only const
/// inputs). Returns (placement, energy) pairs in restart order. The whole
/// pipeline is bit-identical to place_components_reference: the sampler
/// draws and decides like the placed-id scan, anneal_moves consumes the
/// RNG like anneal, and the core's candidate energies match the full
/// recompute double for double.
std::vector<std::pair<Placement, double>> run_sa_restarts(
    const Allocation& allocation, const Schedule& schedule,
    const WashModel& wash_model, const ChipSpec& spec,
    const PlacerOptions& options, PlaceStats* stats_out) {
  if (!spec.has_fixed_grid()) {
    throw std::invalid_argument(
        "place_components requires a fixed grid; call derive_grid first");
  }
  if (allocation.empty()) return {{Placement{}, 0.0}};

  const std::vector<Net> nets =
      build_nets(schedule, wash_model, options.beta, options.gamma);

  // Each restart is an independent task: its Rng is forked from the master
  // seed by index and it writes only its own slots, so running the tasks
  // serially or through options.restart_executor (any order, any number of
  // threads) yields bit-identical results.
  const int restarts = std::max(1, options.restarts);
  std::vector<std::pair<Placement, double>> results(
      static_cast<std::size_t>(restarts));
  std::vector<long> proposals(static_cast<std::size_t>(restarts), 0);
  std::vector<PlaceStats> stats(static_cast<std::size_t>(restarts));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(restarts));
  for (int restart = 0; restart < restarts; ++restart) {
    tasks.push_back([&, restart] {
      TRACE_SPAN("place", "restart");
      Rng rng(fork_seed(options.seed ^ kSeedDomain,
                        static_cast<std::uint64_t>(restart)));
      Placement initial = random_placement(allocation, spec, rng);
      PlacerCore core(allocation, spec, nets);
      core.bind(std::move(initial));
      auto [best, sa] = anneal_moves(core, options.sa, rng);
      // Polish the best state visited, not the final one: rebind it.
      core.bind(std::move(best));
      const double e = core.polish();
      const auto slot = static_cast<std::size_t>(restart);
      proposals[slot] = sa.proposals;
      stats[slot] = core.stats();
      results[slot] = {core.state(), e};
    });
  }
  if (options.restart_executor) {
    options.restart_executor(tasks);
  } else {
    for (auto& task : tasks) task();
  }
  for (int restart = 0; restart < restarts; ++restart) {
    FBMB_INFO("SA placement restart "
              << restart << ": energy "
              << results[static_cast<std::size_t>(restart)].second
              << " after " << proposals[static_cast<std::size_t>(restart)]
              << " proposals");
  }
  if (stats_out) {
    for (const PlaceStats& s : stats) *stats_out += s;
  }
  return results;
}

}  // namespace

Placement place_components(const Allocation& allocation,
                           const Schedule& schedule,
                           const WashModel& wash_model, const ChipSpec& spec,
                           const PlacerOptions& options, PlaceStats* stats) {
  auto results =
      run_sa_restarts(allocation, schedule, wash_model, spec, options, stats);
  auto best = std::min_element(
      results.begin(), results.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return std::move(best->first);
}

std::vector<Placement> place_component_candidates(
    const Allocation& allocation, const Schedule& schedule,
    const WashModel& wash_model, const ChipSpec& spec,
    const PlacerOptions& options, PlaceStats* stats) {
  auto results =
      run_sa_restarts(allocation, schedule, wash_model, spec, options, stats);
  std::vector<Placement> out;
  out.reserve(results.size());
  for (auto& result : results) {
    out.push_back(std::move(result.first));
  }
  return out;
}

}  // namespace fbmb
