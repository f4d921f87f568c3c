#include "route/router.hpp"

#include <algorithm>
#include <vector>

#include "route/router_core.hpp"
#include "util/logging.hpp"

namespace fbmb {

std::vector<int> route_transport_order(const RoutingGrid& grid,
                                       const Schedule& schedule,
                                       const RouterOptions& options) {
  std::vector<int> order(schedule.transports.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  switch (options.order) {
    case RouteOrder::kStartTime:
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const auto& ta = schedule.transports[static_cast<std::size_t>(a)];
        const auto& tb = schedule.transports[static_cast<std::size_t>(b)];
        return ta.departure != tb.departure ? ta.departure < tb.departure
                                            : a < b;
      });
      break;
    case RouteOrder::kLongestFirst: {
      // Estimated length: Manhattan distance between component centers.
      auto estimate = [&](int i) {
        const auto& t = schedule.transports[static_cast<std::size_t>(i)];
        if (!grid.placement() || !grid.allocation() || t.from == t.to) {
          return 0;
        }
        return manhattan_distance(
            grid.placement()->footprint(t.from, *grid.allocation()),
            grid.placement()->footprint(t.to, *grid.allocation()));
      };
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const int ea = estimate(a);
        const int eb = estimate(b);
        return ea != eb ? ea > eb : a < b;
      });
      break;
    }
    case RouteOrder::kId:
      break;  // already in id order
  }
  return order;
}

RoutingResult route_transports(RoutingGrid& grid, const Schedule& schedule,
                               const WashModel& wash_model,
                               const RouterOptions& options) {
  RoutingResult result;
  result.delays.assign(schedule.transports.size(), 0.0);

  // Task ordering; the paper's choice is non-decreasing start time.
  const std::vector<int> order =
      route_transport_order(grid, schedule, options);

  RouterCore core(grid, wash_model, options, &result.stats);

  for (int idx : order) {
    const TransportTask& transport =
        schedule.transports[static_cast<std::size_t>(idx)];
    RouteTask task;
    task.transport_id = idx;
    task.from = transport.from;
    task.to = transport.to;
    task.fluid = transport.fluid;
    task.start = transport.departure;
    task.transport_time = transport.transport_time;
    task.cache_dwell =
        std::max(0.0, transport.consume - transport.arrival());

    const std::vector<Point> sources = grid.ports(task.from);
    const std::vector<Point> targets =
        task.from == task.to ? sources : grid.ports(task.to);
    if (sources.empty() || targets.empty()) {
      throw RoutingError("component has no free port cells");
    }
    core.begin_task(task, sources, targets,
                    task.from == task.to ? task.from : task.to);
    core.count_task_routed();

    std::vector<Point> path;
    double start = task.start;
    double delay = 0.0;

    if (options.conflict_aware) {
      path = core.find_path_postponed(start, delay);
      if (delay > 0.0) ++result.conflict_postponements;
    } else {
      path = core.find_path(start);
      if (path.empty()) {
        throw RoutingError("unroutable transport task (spatially blocked)");
      }
      const double feasible = core.earliest_feasible_start(path, start);
      if (feasible > start) {
        delay = feasible - start;
        start = feasible;
        ++result.conflict_postponements;
      }
    }

    const double flush = core.flush_duration(path);
    core.occupy(path, start);

    RoutedPath routed;
    routed.transport_id = idx;
    routed.from_component = task.from.value;
    routed.to_component = task.to.value;
    routed.cells = std::move(path);
    routed.start = start;
    routed.transport_end = start + task.transport_time;
    routed.cache_until = routed.transport_end + task.cache_dwell;
    routed.wash_duration = flush;
    routed.delay = delay;
    result.total_wash_time += flush;
    result.delays[static_cast<std::size_t>(idx)] = delay;
    result.paths.push_back(std::move(routed));
  }
  return result;
}

}  // namespace fbmb
