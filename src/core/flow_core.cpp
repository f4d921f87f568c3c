#include "core/flow_core.hpp"

#include <algorithm>
#include <chrono>

#include "schedule/retiming.hpp"
#include "trace/trace.hpp"
#include "util/logging.hpp"

namespace fbmb {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool any_delay(const RoutingResult& routing) {
  return std::any_of(routing.delays.begin(), routing.delays.end(),
                     [](double d) { return d > 0.0; });
}

void fold_round(FlowStats* flow, const FlowRound& round) {
  if (!flow) return;
  ++flow->rounds;
  flow->transports_rerouted += round.transports_rerouted;
  flow->transports_reused += round.transports_reused;
  flow->cells_evicted += round.cells_evicted;
  flow->round_details.push_back(round);
}

}  // namespace

RoutingResult route_until_consistent(
    Schedule& schedule, const SequencingGraph& graph,
    const Allocation& allocation, const ChipSpec& chip,
    const Placement& placement, const WashModel& wash_model,
    const RouterOptions& router_options, StageTimes& stages,
    const std::function<void(const char*)>& checkpoint, FlowStats* flow) {
  const int max_rounds = std::max(1, router_options.max_fixpoint_rounds);
  int postponements = 0;
  RouteStats stats_total;

  TRACE_SPAN("stage", "fixpoint");
  const auto build_start = Clock::now();
  RoutingGrid grid = [&] {
    TRACE_SPAN("stage", "grid_build");
    return RoutingGrid(chip, allocation, placement);
  }();
  IncrementalRouter router(grid, wash_model, router_options);
  stages.grid_build += seconds_since(build_start);

  for (int round_index = 0;; ++round_index) {
    TRACE_COUNTER("route", "fixpoint_round", round_index);
    FlowRound round;
    double reset_seconds = 0.0;
    const auto route_start = Clock::now();
    RoutingResult routing;
    {
      TRACE_SPAN("stage", "route_round");
      routing =
          router.route_round(schedule, &round, &reset_seconds, checkpoint);
    }
    stages.route += seconds_since(route_start) - reset_seconds;
    stages.grid_build += reset_seconds;
    fold_round(flow, round);
    stats_total += routing.stats;
    postponements += routing.conflict_postponements;

    // The round after the cap is the reconciliation round: it routes the
    // schedule retimed by the last capped round and is returned whatever
    // its delays. Those are baked into its path starts (path.start >=
    // departure) but never reach the schedule, so the pair is not
    // consistent (RouterOptions::max_fixpoint_rounds).
    const bool reconciliation = round_index == max_rounds;
    if (reconciliation || !any_delay(routing)) {
      if (reconciliation) stats_total.fixpoints_capped = 1;
      routing.conflict_postponements = postponements;
      routing.stats = stats_total;
      return routing;
    }
    if (round_index + 1 == max_rounds) {
      FBMB_WARN("routing still postponing after " << max_rounds
                                                  << " rounds");
    }
    const auto retime_start = Clock::now();
    {
      TRACE_SPAN("stage", "retime");
      apply_transport_delays(schedule, graph, routing.delays);
    }
    stages.retime += seconds_since(retime_start);
  }
}

}  // namespace fbmb
