// The pre-PlacerCore SA placer, kept verbatim as an equivalence oracle.
// Every proposal copies the whole Placement, re-evaluates Eq. 3 over all
// nets (plus an O(n^2) pairwise rescan for the compaction term), and checks
// legality by scanning every other component. The original BA correction
// loop sits next to it: every origin pays a legality scan over all
// components and a cost rebuilt from footprints; its shelf packing and
// legality scan are this file's packed_placement and fits, whose bodies
// are the ones it was written against. Do not optimize this file: its
// value is being the original, obviously-correct formulation.

#include "oracle/reference_placer.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "oracle/reference_anneal.hpp"
#include "place/connection_priority.hpp"
#include "util/interval_set.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fbmb {

namespace {

/// Legality of a single component's footprint against all others.
bool fits(const Placement& placement, const Allocation& allocation,
          const ChipSpec& spec, ComponentId id) {
  const Rect chip{0, 0, spec.grid_width, spec.grid_height};
  const Rect fp = placement.footprint(id, allocation);
  if (!chip.contains(fp)) return false;
  const Rect inflated = fp.inflated(spec.component_spacing);
  for (const auto& other : allocation.components()) {
    if (other.id == id) continue;
    if (inflated.overlaps(placement.footprint(other.id, allocation))) {
      return false;
    }
  }
  return true;
}

/// Deterministic packed placement: row-major shelf packing. Fallback when
/// rejection sampling cannot find a random legal start.
Placement packed_placement(const Allocation& allocation,
                           const ChipSpec& spec) {
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

/// The original rejection sampler: every attempt's clash check scans the
/// list of already-placed ids (the occupancy-index version in
/// place_components draws and decides identically).
Placement random_placement_reference(const Allocation& allocation,
                                     const ChipSpec& spec, Rng& rng) {
  Placement placement(allocation.size());
  constexpr int kTriesPerComponent = 200;
  std::vector<ComponentId> placed_ids;
  placed_ids.reserve(allocation.size());
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
      placement.at(comp.id) = {origin, rotated};
      bool clash = false;
      const Rect fp =
          placement.footprint(comp.id, allocation)
              .inflated(spec.component_spacing);
      const Rect chip{0, 0, spec.grid_width, spec.grid_height};
      if (!chip.contains(placement.footprint(comp.id, allocation))) {
        clash = true;
      }
      for (const ComponentId prev : placed_ids) {
        if (clash) break;
        if (fp.overlaps(placement.footprint(prev, allocation))) {
          clash = true;
        }
      }
      if (!clash) {
        placed = true;
        placed_ids.push_back(comp.id);
        break;
      }
    }
    if (!placed) {
      ok = false;
      break;
    }
  }
  if (ok && placement.is_legal(allocation, spec)) return placement;
  return packed_placement(allocation, spec);
}

/// Domain-separation tag XORed into the user seed before forking
/// per-restart streams. Must stay equal to the core's tag.
constexpr std::uint64_t kSeedDomain = seed_domain("SA_PLACE");

/// Shared implementation: one polished SA run per restart. Returns
/// (placement, energy) pairs in restart order.
std::vector<std::pair<Placement, double>> run_sa_restarts_reference(
    const Allocation& allocation, const Schedule& schedule,
    const WashModel& wash_model, const ChipSpec& spec,
    const PlacerOptions& options) {
  if (!spec.has_fixed_grid()) {
    throw std::invalid_argument(
        "place_components requires a fixed grid; call derive_grid first");
  }
  if (allocation.empty()) return {{Placement{}, 0.0}};

  const std::vector<Net> nets =
      build_nets(schedule, wash_model, options.beta, options.gamma);

  auto energy = [&](const Placement& p) {
    return placement_energy(p, allocation, nets, kCompactionWeight);
  };
  auto propose = [&](const Placement& p,
                     Rng& r) -> std::optional<Placement> {
    Placement candidate = p;
    const int n = static_cast<int>(allocation.size());
    const ComponentId target{r.uniform_int(0, n - 1)};
    const int kind = n >= 2 ? r.uniform_int(0, 3) : r.uniform_int(0, 2);
    switch (kind) {
      case 0: {  // translate to a random origin
        const Component& comp = allocation.component(target);
        PlacedComponent& pc = candidate.at(target);
        const int w = pc.rotated ? comp.height : comp.width;
        const int h = pc.rotated ? comp.width : comp.height;
        if (spec.grid_width - w < 0 || spec.grid_height - h < 0) {
          return std::nullopt;
        }
        pc.origin = {r.uniform_int(0, spec.grid_width - w),
                     r.uniform_int(0, spec.grid_height - h)};
        break;
      }
      case 1: {  // local nudge: low-temperature refinement moves
        PlacedComponent& pc = candidate.at(target);
        pc.origin.x += r.uniform_int(-3, 3);
        pc.origin.y += r.uniform_int(-3, 3);
        break;
      }
      case 2: {  // rotate 90 degrees
        candidate.at(target).rotated = !candidate.at(target).rotated;
        break;
      }
      default: {  // swap origins with another component
        ComponentId other{r.uniform_int(0, n - 1)};
        if (other == target) return std::nullopt;
        std::swap(candidate.at(target).origin, candidate.at(other).origin);
        if (!fits(candidate, allocation, spec, other)) return std::nullopt;
        break;
      }
    }
    if (!fits(candidate, allocation, spec, target)) return std::nullopt;
    return candidate;
  };

  // Deterministic greedy polish: unit slides and rotations accepted while
  // they strictly lower the energy.
  auto polish = [&](Placement& p) {
    bool improved = true;
    double e_best = energy(p);
    while (improved) {
      improved = false;
      for (const auto& comp : allocation.components()) {
        const PlacedComponent saved = p.at(comp.id);
        PlacedComponent trial_best = saved;
        const Point deltas[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        for (int rot = 0; rot < 2; ++rot) {
          for (const Point& d : deltas) {
            p.at(comp.id) = {saved.origin + d,
                             rot == 1 ? !saved.rotated : saved.rotated};
            if (!fits(p, allocation, spec, comp.id)) continue;
            const double e = energy(p);
            if (e < e_best - 1e-12) {
              e_best = e;
              trial_best = p.at(comp.id);
              improved = true;
            }
          }
        }
        p.at(comp.id) = trial_best;
      }
    }
    return e_best;
  };

  const int restarts = std::max(1, options.restarts);
  std::vector<std::pair<Placement, double>> results(
      static_cast<std::size_t>(restarts));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(restarts));
  for (int restart = 0; restart < restarts; ++restart) {
    tasks.push_back([&, restart] {
      Rng rng(fork_seed(options.seed ^ kSeedDomain,
                        static_cast<std::uint64_t>(restart)));
      Placement initial = random_placement_reference(allocation, spec, rng);
      auto [best, stats] = anneal(std::move(initial), energy, propose,
                                  options.sa, rng);
      (void)stats;
      const double e = polish(best);
      results[static_cast<std::size_t>(restart)] = {std::move(best), e};
    });
  }
  if (options.restart_executor) {
    options.restart_executor(tasks);
  } else {
    for (auto& task : tasks) task();
  }
  return results;
}

}  // namespace

Placement place_components_reference(const Allocation& allocation,
                                     const Schedule& schedule,
                                     const WashModel& wash_model,
                                     const ChipSpec& spec,
                                     const PlacerOptions& options) {
  auto results = run_sa_restarts_reference(allocation, schedule, wash_model,
                                           spec, options);
  auto best = std::min_element(
      results.begin(), results.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return std::move(best->first);
}

std::vector<Placement> place_component_candidates_reference(
    const Allocation& allocation, const Schedule& schedule,
    const WashModel& wash_model, const ChipSpec& spec,
    const PlacerOptions& options) {
  auto results = run_sa_restarts_reference(allocation, schedule, wash_model,
                                           spec, options);
  std::vector<Placement> out;
  out.reserve(results.size());
  for (auto& result : results) {
    out.push_back(std::move(result.first));
  }
  return out;
}

Placement place_components_baseline_reference(
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

  Placement placement = packed_placement(allocation, spec);

  // Sequential correction: relocate each component to the legal origin that
  // minimizes the sum of Manhattan distances to its neighbours (or to every
  // other component when it has none).
  for (int pass = 0; pass < options.correction_passes; ++pass) {
    bool improved = false;
    for (const auto& comp : allocation.components()) {
      const auto& nbrs = neighbors[static_cast<std::size_t>(comp.id.value)];
      const PlacedComponent original = placement.at(comp.id);
      auto cost = [&]() {
        long c = 0;
        const Rect fp = placement.footprint(comp.id, allocation);
        if (!nbrs.empty()) {
          for (ComponentId n : nbrs) {
            c += manhattan_distance(fp, placement.footprint(n, allocation));
          }
        } else {
          for (const auto& other : allocation.components()) {
            if (other.id == comp.id) continue;
            c += manhattan_distance(
                fp, placement.footprint(other.id, allocation));
          }
        }
        return c;
      };
      long best_cost = cost();
      PlacedComponent best = original;
      for (int rot = 0; rot < 2; ++rot) {
        const bool rotated = rot == 1;
        const int w = rotated ? comp.height : comp.width;
        const int h = rotated ? comp.width : comp.height;
        for (int y = 0; y + h <= spec.grid_height; ++y) {
          for (int x = 0; x + w <= spec.grid_width; ++x) {
            placement.at(comp.id) = {{x, y}, rotated};
            if (!fits(placement, allocation, spec, comp.id)) continue;
            const long c = cost();
            if (c < best_cost) {
              best_cost = c;
              best = placement.at(comp.id);
            }
          }
        }
      }
      placement.at(comp.id) = best;
      if (!(best.origin == original.origin && best.rotated == original.rotated)) {
        improved = true;
      }
    }
    if (!improved) break;
  }
  return placement;
}

int concurrent_transport_count(const std::vector<TransportTask>& transports,
                               std::size_t index) {
  const TimeInterval window{transports[index].departure,
                            transports[index].arrival()};
  int count = 0;
  for (std::size_t i = 0; i < transports.size(); ++i) {
    if (i == index) continue;
    const TimeInterval other{transports[i].departure,
                             transports[i].arrival()};
    if (window.overlaps(other)) ++count;
  }
  return count;
}

}  // namespace fbmb
