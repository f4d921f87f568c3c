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
// Baseline mode (wash_aware_weights = false, conflict_aware = false)
// reproduces BA: pure shortest-path search, conflicts resolved afterwards by
// postponing the task until its path is free; the postponement is returned
// per transport so the schedule can be retimed.

#pragma once

#include <stdexcept>
#include <vector>

#include "biochip/wash_model.hpp"
#include "route/grid.hpp"
#include "route/types.hpp"
#include "schedule/types.hpp"

namespace fbmb {

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
  /// Enforce temporal exclusion inside the search (ours). When false the
  /// search is purely spatial and conflicts are resolved by postponement.
  bool conflict_aware = true;
  /// Postponement granularity in seconds when a task must wait.
  double postpone_step = 1.0;
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
/// weights and residues). Throws RoutingError if a task cannot be routed at
/// all (disconnected ports). Delays in the result are indexed by transport
/// id and feed apply_transport_delays.
RoutingResult route_transports(RoutingGrid& grid, const Schedule& schedule,
                               const WashModel& wash_model,
                               const RouterOptions& options = {});

/// The sequential routing order route_transports processes `schedule` in
/// under options.order (deterministic). Exposed so the incremental
/// fixpoint router sweeps tasks in the exact same order as a from-scratch
/// route of the same schedule.
std::vector<int> route_transport_order(const RoutingGrid& grid,
                                       const Schedule& schedule,
                                       const RouterOptions& options);

}  // namespace fbmb
