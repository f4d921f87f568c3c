// Routing results.

#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "util/fields.hpp"
#include "util/geometry.hpp"

namespace fbmb {

/// Search-effort counters for one routing pass (or, after
/// route_until_consistent, the sum over its rounds). Telemetry-only: two
/// RoutingResults are considered equivalent regardless of their stats.
/// The three search counters cover only the A* searches that actually
/// ran: a postponement step whose failure certificate still holds runs
/// none (RouterCore::find_path_postponed), and neither do replayed tasks.
struct RouteStats {
  std::uint64_t tasks_routed = 0;    ///< transports routed, not replayed
  std::uint64_t nodes_expanded = 0;  ///< non-stale A* pops
  std::uint64_t heap_pushes = 0;     ///< A* open-list insertions
  /// Cells an A* search priced +inf for a conflict (Eq. 5); blocked
  /// cells and certificate checks count nothing.
  std::uint64_t feasibility_rejections = 0;
  /// Every kPostponeStep increment, whether its retry was searched or
  /// certified to fail; the same count a search-every-step loop makes.
  std::uint64_t postponement_steps = 0;
  std::uint64_t distance_fields_built = 0;  ///< heuristic BFS fields built
  /// Route–retime fixpoints that hit RouterOptions::max_fixpoint_rounds
  /// with delays still pending. The cap path applies the final retiming
  /// and routes once more, but that route's delays are not retimed, so
  /// the result is not consistent (see RouterOptions::max_fixpoint_rounds).
  std::uint64_t fixpoints_capped = 0;

  /// Every counter above, as {JSON key, member} (util/fields.hpp).
  static constexpr Field<RouteStats, std::uint64_t> kFields[] = {
      {"tasks_routed", &RouteStats::tasks_routed},
      {"nodes_expanded", &RouteStats::nodes_expanded},
      {"heap_pushes", &RouteStats::heap_pushes},
      {"feasibility_rejections", &RouteStats::feasibility_rejections},
      {"postponement_steps", &RouteStats::postponement_steps},
      {"distance_fields_built", &RouteStats::distance_fields_built},
      {"fixpoints_capped", &RouteStats::fixpoints_capped},
  };

  RouteStats& operator+=(const RouteStats& o) { return add_fields(*this, o); }
  friend bool operator==(const RouteStats&, const RouteStats&) = default;
};

/// Reuse counters for the route–retime fixpoint (core/flow_core.hpp),
/// added to by every IncrementalRouter round and summed over every
/// fixpoint a flow runs (one per SA placement candidate). Telemetry-only,
/// like RouteStats.
struct FlowStats {
  std::uint64_t rounds = 0;               ///< routing rounds executed
  std::uint64_t transports_rerouted = 0;  ///< tasks that ran the A* pipeline
  std::uint64_t transports_reused = 0;    ///< tasks replayed without search
  std::uint64_t cells_evicted = 0;  ///< cell reservations dropped by dirt

  /// Every counter above, as {JSON key, member} (util/fields.hpp).
  static constexpr Field<FlowStats, std::uint64_t> kFields[] = {
      {"rounds", &FlowStats::rounds},
      {"transports_rerouted", &FlowStats::transports_rerouted},
      {"transports_reused", &FlowStats::transports_reused},
      {"cells_evicted", &FlowStats::cells_evicted},
  };

  FlowStats& operator+=(const FlowStats& o) { return add_fields(*this, o); }
  friend bool operator==(const FlowStats&, const FlowStats&) = default;
};

/// One routed transportation task.
struct RoutedPath {
  int transport_id = -1;        ///< index into Schedule::transports
  int from_component = -1;      ///< source ComponentId
  int to_component = -1;        ///< destination ComponentId
  std::vector<Point> cells;     ///< source port .. destination port
  double start = 0.0;           ///< fluid departs (post any postponement)
  double transport_end = 0.0;   ///< start + t_c
  double cache_until = 0.0;     ///< fluid consumed (>= transport_end)
  double wash_duration = 0.0;   ///< flush before start (0 if path clean)
  double delay = 0.0;           ///< postponement the router added

  int length_cells() const {
    return cells.empty() ? 0 : static_cast<int>(cells.size()) - 1;
  }

  friend bool operator==(const RoutedPath&, const RoutedPath&) = default;
};

/// Aggregate routing outcome for a schedule.
struct RoutingResult {
  std::vector<RoutedPath> paths;     ///< one per transport, in routed order
  std::vector<double> delays;        ///< per transport index (for retiming)
  double total_wash_time = 0.0;      ///< sum of wash flushes (Fig. 9)
  int conflict_postponements = 0;    ///< tasks the router had to delay
  RouteStats stats;                  ///< search-effort counters (telemetry)

  /// Distinct undirected channel segments (adjacent-cell pairs) fabricated
  /// across all paths, plus the distinct component-to-channel connection
  /// stubs (one per used (component, port-cell) pair): shared segments are
  /// counted once — channels are physical and reusable.
  int distinct_channel_edges() const;

  /// Physical channel length: distinct segments * cell pitch.
  double total_channel_length_mm(double cell_pitch_mm) const {
    return distinct_channel_edges() * cell_pitch_mm;
  }

  /// Sum of per-path lengths (with sharing double-counted); used to compare
  /// routed detour against the distinct-channel metric.
  int total_routed_cells() const;

  friend bool operator==(const RoutingResult&, const RoutingResult&) = default;
};

/// True when the two results are == apart from their telemetry-only
/// RouteStats. This is the equivalence relation the core-vs-reference
/// tests and the fuzz oracle assert.
bool identical_routing(const RoutingResult& a, const RoutingResult& b);

}  // namespace fbmb
