#include "oracle/reference_flow.hpp"

#include <algorithm>
#include <chrono>

#include "route/grid.hpp"
#include "route/router.hpp"
#include "schedule/retiming.hpp"
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

// The reference fixpoint is deliberately left uninstrumented: it is the
// differential oracle, not a production path.
RoutingResult route_until_consistent_reference(
    Schedule& schedule, const SequencingGraph& graph,
    const Allocation& allocation, const ChipSpec& chip,
    const Placement& placement, const WashModel& wash_model,
    const RouterOptions& router_options, StageTimes& stages,
    const std::function<void(const char*)>& checkpoint, FlowStats* flow) {
  const int max_rounds = std::max(1, router_options.max_fixpoint_rounds);
  int postponements = 0;
  RouteStats stats_total;

  auto route_once = [&]() {
    if (checkpoint) checkpoint("route");
    const auto build_start = Clock::now();
    RoutingGrid grid(chip, allocation, placement);
    stages.grid_build += seconds_since(build_start);
    const auto route_start = Clock::now();
    RoutingResult routing =
        route_transports(grid, schedule, wash_model, router_options);
    stages.route += seconds_since(route_start);
    if (flow) {
      FlowRound round;
      round.transports_rerouted = schedule.transports.size();
      fold_round(flow, round);
    }
    stats_total += routing.stats;
    postponements += routing.conflict_postponements;
    return routing;
  };

  for (int round_index = 0;; ++round_index) {
    RoutingResult routing = route_once();
    if (!any_delay(routing)) {
      routing.conflict_postponements = postponements;
      routing.stats = stats_total;
      return routing;
    }
    if (round_index + 1 >= max_rounds) {
      // Same cap-path reconciliation as the incremental core (the bugfix
      // applies to both, keeping them bit-identical): retime, then one
      // final from-scratch route against the retimed schedule.
      FBMB_WARN("routing still postponing after " << max_rounds
                                                  << " rounds");
      const auto retime_start = Clock::now();
      apply_transport_delays(schedule, graph, routing.delays);
      stages.retime += seconds_since(retime_start);
      RoutingResult final_routing = route_once();
      stats_total.fixpoints_capped = 1;
      final_routing.conflict_postponements = postponements;
      final_routing.stats = stats_total;
      return final_routing;
    }
    const auto retime_start = Clock::now();
    apply_transport_delays(schedule, graph, routing.delays);
    stages.retime += seconds_since(retime_start);
  }
}

}  // namespace fbmb
