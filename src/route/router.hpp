// Transportation-conflict-aware routing (Algorithm 2, lines 9-18).
//
// Tasks are routed sequentially in non-decreasing start-time order with a
// multi-source / multi-target A* over the routing grid. The cost of
// expanding into a cell k follows Eq. 5:
//
//   Cost(k) = h(k) + g(k) + w(k)    if k's occupation slots do not overlap
//                                   the task's required interval,
//           = +inf                  otherwise,
//
// accumulated per cell (g includes the weights of all cells on the partial
// path; h is the Manhattan lower bound to the nearest target port). Weights
// start at w_e and are updated to the wash time of the residue the routed
// task leaves behind, so channels whose residue is cheap to wash are
// preferred and path sharing grows — while temporal exclusion eliminates
// transportation conflicts among parallel tasks entirely.
//
// The required interval of a task on a cell covers the wash flush needed on
// that cell ([start - wash, start)), the movement window ([start,
// start + t_c)), and — for the path's tail cells near the destination — the
// channel-cache dwell ([start + t_c, consume)).
//
// A task with no feasible path at its start waits: the router postpones
// it until a path is free and returns the postponement per transport, so
// the schedule can be retimed. BA (synthesize_baseline) routes with
// wash_aware_weights = false, i.e. every cell costs w_e and the search is
// a shortest path, still under temporal exclusion. conflict_aware = false
// makes the search purely spatial and postpones afterwards, until the
// chosen path is free; no preset uses it.
//
// The per-task pipeline is implemented once, in IncrementalRouter
// (route/incremental_router.hpp); route_transports is one round of it.

#pragma once

#include <stdexcept>

#include "biochip/wash_model.hpp"
#include "route/grid.hpp"
#include "route/types.hpp"
#include "schedule/types.hpp"

namespace fbmb {

/// Postponement granularity in seconds when a task must wait.
inline constexpr double kPostponeStep = 1.0;

/// Sequential routing order (the paper routes in non-decreasing start
/// time; alternatives are exposed for the ordering ablation).
enum class RouteOrder {
  kStartTime,     ///< paper: non-decreasing task start
  kLongestFirst,  ///< estimated Manhattan length, descending
  kId,            ///< schedule transport order
};

struct RouterOptions {
  /// Use wash-time cell weights (ours). When false every cell costs the
  /// constant w_e, i.e. the search degenerates to shortest path.
  bool wash_aware_weights = true;
  RouteOrder order = RouteOrder::kStartTime;
  /// Enforce temporal exclusion inside the search (both presets). When
  /// false the search is purely spatial and conflicts are resolved by
  /// postponement.
  bool conflict_aware = true;
  /// Give up after this many postponement steps for one task.
  int max_postpone_steps = 100000;
  /// Round cap for the route–retime fixpoint (route_until_consistent).
  /// The loop need not converge: a postponement can start a wait-for
  /// cycle that repeats every round, and about a third of 70-operation
  /// candidate fixpoints reach this cap (ROADMAP.md, item (1)). When the
  /// cap fires, the fixpoint applies the final retiming, runs one
  /// reconciliation route and reports it via RouteStats::fixpoints_capped.
  /// That route's own delays are not retimed, so the returned (schedule,
  /// routing) pair is not consistent: every one measured fails
  /// simulate_chip.
  int max_fixpoint_rounds = 20;
};

class RoutingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Routes every transport of `schedule` on `grid` (mutating cell occupancy,
/// weights and residues), in options.order: the first round of an
/// IncrementalRouter on `grid`. Throws RoutingError if a task cannot be
/// routed at all (disconnected ports). Delays in the result are indexed by
/// transport id and feed apply_transport_delays.
RoutingResult route_transports(RoutingGrid& grid, const Schedule& schedule,
                               const WashModel& wash_model,
                               const RouterOptions& options = {});

}  // namespace fbmb
