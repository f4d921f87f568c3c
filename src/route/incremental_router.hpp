// Incremental routing: the one routing pipeline.
//
// IncrementalRouter routes a schedule in rounds on a RoutingGrid its
// caller owns. The first round marks every transport dirty and runs the
// full per-task pipeline in route order, which is all a one-shot route
// is: route_transports (route/router.hpp) is exactly one such round on
// the caller's grid. Later rounds serve the route–retime fixpoint
// (core/flow_core.hpp), which routes a schedule, folds any router
// postponements back into the schedule, and routes again until the pair
// is consistent. A retiming round typically shifts only the postponed
// transports and their downstream cone, so the router keeps the routing
// state of the previous round and re-routes only the dirty set:
//
// Reuse is decided by *footprint verification*. RouterCore's A* is a
// deterministic function of the static grid (ports, blockages, distance
// fields) plus the dynamic state — weight and feasibility verdict — of
// every cell the search *probes* (not just the cells of the path it
// commits: the Eq. 5 feasibility predicate steers the search around
// occupied cells, so a freed reservation elsewhere can legitimately
// change the chosen path). Each routed task therefore records the
// read-set of its final, committing search attempt (one
// RouterCore::Probe per probed cell), and a task replays its stored path
// in a later round iff every probe of that attempt reproduces against
// the grid state the earlier tasks of this round have built — evaluated
// at the task's *current* departure, transport time and cache dwell.
// The start time enters find_path only through the feasibility
// verdicts, and the verdicts are exactly what the probes re-check, so
// reuse is start-agnostic: a task whose window was merely shifted by
// retiming (the postponed tasks themselves and their whole downstream
// cone — where most of the fixpoint's repeat work lives) replays as
// long as no verdict flips, and the search, were it re-run at the new
// window, would read the same values, unfold identically, and commit
// the stored path with no postponement.
//
// A per-path overlap check alone is NOT sound here: it sees new conflicts
// on the stored path but not newly-freed cells off it, and diverged from
// the from-scratch loop on Synthetic3/baseline. Dirtiness propagates to
// closure automatically: a re-routed task's changed contribution fails
// the probe checks of exactly those later tasks whose searches read it.
//
// One shortcut keeps the bookkeeping cheap without weakening exactness:
// while a round replays the previous round position-for-position (the
// verbatim prefix), grid state is bitwise what each task searched last
// round, so timing-clean tasks replay with no probe checking at all.
// Recording is on in every round — the first round cannot reuse
// anything, but its footprints are what make the postponed tasks it
// routed reusable in round two, where most of the fixpoint's repeat
// work lives. A one-shot route pays for that recording and never uses it.
//
// Rather than evicting intervals from a persistent grid (IntervalSet has
// no erase, and residues/weights are last-writer state that cannot be
// reverted locally), each later round resets the grid's transient state
// and sweeps the tasks in the round's route order, replaying clean tasks'
// stored contributions (O(probed cells), no heap search) and running the
// full RouterCore pipeline for dirty ones. The sweep guarantees the
// search for the task at position k sees exactly the contributions of
// positions < k — the same state a one-shot route of the current
// schedule on a fresh grid builds — which in-place eviction cannot
// guarantee. The flow-equivalence suite checks the end result is
// bit-identical to the from-scratch loop (fresh grid and one-shot route
// per round, oracle/reference_flow.hpp) on every paper benchmark under
// both presets.

#pragma once

#include <functional>
#include <vector>

#include "biochip/wash_model.hpp"
#include "route/grid.hpp"
#include "route/router.hpp"
#include "route/router_core.hpp"

namespace fbmb {

class IncrementalRouter {
 public:
  /// Builds the persistent A* workspace once for `grid`, which the
  /// router routes on and mutates; the grid (and the allocation and
  /// placement it was built from) and the wash model must outlive the
  /// router.
  IncrementalRouter(RoutingGrid& grid, const WashModel& wash_model,
                    const RouterOptions& options);

  IncrementalRouter(const IncrementalRouter&) = delete;
  IncrementalRouter& operator=(const IncrementalRouter&) = delete;

  /// Cancellation hook invoked once per transport inside a round (not
  /// once per round), so a service deadline or client disconnect aborts
  /// within one search of firing. Throwing is the only supported way to
  /// cancel; the router makes no attempt to keep its incremental state
  /// usable after a throw (the fixpoint abandons it).
  using Checkpoint = std::function<void(const char*)>;

  /// Routes `schedule` for one round. The first round routes every
  /// transport on the grid as the caller handed it; later rounds reset the
  /// grid's transient state, re-route only the dirty set and replay the
  /// rest. A later round returns exactly what a first round on a fresh
  /// grid would, apart from the telemetry-only stats (which count only
  /// the searches actually performed). `flow` (optional) gets this
  /// round's reuse accounting added; `reset_seconds` (optional)
  /// accumulates the wall time of the between-round grid reset, which the
  /// fixpoint attributes to the grid_build stage rather than route.
  /// `checkpoint` (optional) is the per-transport cancellation hook.
  RoutingResult route_round(const Schedule& schedule,
                            FlowStats* flow = nullptr,
                            double* reset_seconds = nullptr,
                            const Checkpoint& checkpoint = {});

 private:
  /// The committed contribution of one transport, as of the last round it
  /// was routed (searched) in.
  struct TaskRecord {
    bool valid = false;
    // Window the path was last committed for. Reuse itself is
    // start-agnostic (the probes re-verify at the current window); the
    // committed window only matters for the verbatim-prefix fast path,
    // which requires this round's contribution to be bitwise last
    // round's. A replayed task always commits with delay 0.
    double transport_time = 0.0;
    double cache_dwell = 0.0;
    std::vector<Point> cells;
    std::vector<double> wash;  ///< per-cell wash lead when committed
    double start = 0.0;
    double wash_duration = 0.0;
    /// Read-set of the final (successful) search attempt; earlier
    /// postponement attempts searched windows that no longer matter.
    std::vector<RouterCore::Probe> footprint;
  };

  /// The serial commit-order sweep at the heart of every round: replays
  /// clean tasks, searches dirty ones, in the route order of
  /// RouterOptions::order. Exactly the from-scratch semantics — see the
  /// header comment.
  void commit_sweep(const Schedule& schedule, const std::vector<int>& order,
                    bool all_dirty, RoutingResult& result, FlowStats* flow,
                    const Checkpoint& checkpoint);

  /// The RouteTask this transport routes as.
  static RouteTask make_route_task(int idx, const TransportTask& transport);

  const std::vector<Point>& ports(ComponentId id);

  RouterOptions options_;
  RoutingGrid& grid_;
  RouterCore core_;
  std::vector<TaskRecord> records_;
  /// Ports depend only on the (fixed) placement; computed once per
  /// component instead of once per task per round.
  std::vector<std::vector<Point>> ports_cache_;
  std::vector<bool> ports_cached_;
  /// Scratch probe sink for dirty tasks (cleared per search attempt so
  /// it ends holding the final attempt's read-set). The committed
  /// read-set is swapped — not copied — into the task record, and the
  /// record's previous footprint capacity is recycled as the next
  /// scratch, so steady-state recording performs no allocation; a
  /// high-water reserve keeps the first round's early tasks from
  /// re-growing the log through repeated reallocations.
  std::vector<RouterCore::Probe> probe_buffer_;
  std::size_t probe_high_water_ = 0;
  /// Route order of the previous round, for the verbatim-prefix fast
  /// path: a position that changed hands ends the prefix even if both
  /// transports involved are timing-clean.
  std::vector<int> prev_order_;
  int round_number_ = 0;
};

}  // namespace fbmb
