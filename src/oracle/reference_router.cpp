#include "oracle/reference_router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

#include "util/logging.hpp"

namespace fbmb {

namespace {

/// One unit of routing work derived from a TransportTask.
struct Task {
  int transport_id;
  ComponentId from;
  ComponentId to;
  Fluid fluid;
  double start;        ///< departure
  double transport_time;
  double cache_dwell;  ///< consume - arrival (>= 0)
};

int min_manhattan(const Point& p, const std::vector<Point>& targets) {
  int best = std::numeric_limits<int>::max();
  for (const Point& t : targets) {
    best = std::min(best, manhattan_distance(p, t));
  }
  return best;
}

/// The time interval the task needs on `cell` if routed through it with the
/// given start time. Tail cells (near a target port) also carry the cache
/// dwell.
TimeInterval required_interval(const RoutingGrid& grid, const Point& cell,
                               const Task& task, double start,
                               const WashModel& wash_model,
                               bool maybe_tail) {
  const double wash = grid.wash_needed(cell, task.fluid, wash_model);
  double end = start + task.transport_time;
  if (maybe_tail && task.cache_dwell > 0.0) end += task.cache_dwell;
  return {start - wash, end};
}

struct AStarNode {
  double f;
  double g;
  Point point;
  bool operator>(const AStarNode& o) const {
    if (f != o.f) return f > o.f;
    if (g != o.g) return g > o.g;
    return o.point < point;  // deterministic tiebreak
  }
};

/// Multi-source multi-target A*. Returns the path (source..target) or empty
/// if unreachable under the feasibility predicate.
std::vector<Point> astar(const RoutingGrid& grid,
                         const std::vector<Point>& sources,
                         const std::vector<Point>& targets,
                         const Task& task, double start,
                         const WashModel& wash_model,
                         const RouterOptions& opts, int cache_cells) {
  if (sources.empty() || targets.empty()) return {};

  auto cell_weight = [&](const Point& p) {
    return opts.wash_aware_weights ? grid.cell(p).weight
                                   : grid.spec().initial_cell_weight;
  };
  auto feasible = [&](const Point& p) {
    if (grid.blocked(p)) return false;
    if (!opts.conflict_aware) return true;
    const bool maybe_tail = min_manhattan(p, targets) <= cache_cells;
    const TimeInterval need =
        required_interval(grid, p, task, start, wash_model, maybe_tail);
    return !grid.cell(p).occupancy.overlaps(need);
  };

  std::priority_queue<AStarNode, std::vector<AStarNode>,
                      std::greater<AStarNode>>
      open;
  std::unordered_map<Point, double> best_g;
  std::unordered_map<Point, Point> parent;

  for (const Point& s : sources) {
    if (!feasible(s)) continue;
    const double g = 1.0 + cell_weight(s);
    auto it = best_g.find(s);
    if (it == best_g.end() || g < it->second) {
      best_g[s] = g;
      open.push({g + min_manhattan(s, targets), g, s});
    }
  }

  while (!open.empty()) {
    const AStarNode node = open.top();
    open.pop();
    auto it = best_g.find(node.point);
    if (it != best_g.end() && node.g > it->second) continue;  // stale
    if (std::find(targets.begin(), targets.end(), node.point) !=
        targets.end()) {
      // Reconstruct.
      std::vector<Point> path{node.point};
      Point cur = node.point;
      for (auto pit = parent.find(cur); pit != parent.end();
           pit = parent.find(cur)) {
        cur = pit->second;
        path.push_back(cur);
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (const Point& next : grid.neighbors(node.point)) {
      if (!feasible(next)) continue;
      const double g = node.g + 1.0 + cell_weight(next);
      auto git = best_g.find(next);
      if (git == best_g.end() || g < git->second) {
        best_g[next] = g;
        parent[next] = node.point;
        open.push({g + min_manhattan(next, targets), g, next});
      }
    }
  }
  return {};
}

/// Earliest start >= desired at which every path cell is free for its
/// required interval (baseline conflict resolution by postponement).
/// Accepts t only when no cell overlaps the exact interval occupy() will
/// insert, so a returned start can never make insert_disjoint fail: an
/// epsilon-based fixpoint test here could accept a start with a sliver
/// overlap that occupy() then rejects.
double earliest_feasible_start(const RoutingGrid& grid,
                               const std::vector<Point>& path,
                               const Task& task, double desired,
                               const WashModel& wash_model, int cache_cells) {
  double t = desired;
  const int n = static_cast<int>(path.size());
  for (int iteration = 0; iteration < 1000; ++iteration) {
    double needed = t;
    bool conflict = false;
    for (int i = 0; i < n; ++i) {
      const Point& p = path[static_cast<std::size_t>(i)];
      const double wash = grid.wash_needed(p, task.fluid, wash_model);
      const bool tail = (n - 1 - i) < cache_cells;
      // Exactly the interval occupy() inserts for this cell.
      const double lo = t - wash;
      const double hi = t + task.transport_time +
                        (tail ? task.cache_dwell : 0.0);
      const IntervalSet& occ = grid.cell(p).occupancy;
      if (!occ.overlaps({lo, hi})) continue;
      conflict = true;
      needed = std::max(needed, occ.earliest_fit(lo, hi - lo) + wash);
    }
    if (!conflict) return t;
    // (t - wash) + wash can round below t, stalling the advance on a
    // sliver overlap; force at least one-ulp progress in that case.
    t = needed > t
            ? needed
            : std::nextafter(t, std::numeric_limits<double>::infinity());
  }
  return t;
}

/// Commits a routed task: occupancy slots, residues, weights.
void occupy(RoutingGrid& grid, const std::vector<Point>& path,
            const Task& task, double start, double flush,
            const WashModel& wash_model, const RouterOptions& opts,
            int cache_cells) {
  (void)flush;
  const int n = static_cast<int>(path.size());
  for (int i = 0; i < n; ++i) {
    const Point& p = path[static_cast<std::size_t>(i)];
    const double wash = grid.wash_needed(p, task.fluid, wash_model);
    const bool tail = (n - 1 - i) < cache_cells;
    const double end = start + task.transport_time +
                       (tail ? task.cache_dwell : 0.0);
    CellState& cell = grid.cell(p);
    if (!cell.occupancy.insert_disjoint({start - wash, end})) {
      throw RoutingError(
          "internal occupancy conflict: feasibility accepted an interval "
          "that overlaps an existing reservation");
    }
    cell.residue = task.fluid;
    if (opts.wash_aware_weights) {
      cell.weight = wash_model.wash_time(task.fluid);
    }
  }
}

}  // namespace

RoutingResult route_transports_reference(RoutingGrid& grid,
                                         const Schedule& schedule,
                                         const WashModel& wash_model,
                                         const RouterOptions& options) {
  RoutingResult result;
  result.delays.assign(schedule.transports.size(), 0.0);

  // Task ordering; the paper's choice is non-decreasing start time.
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

  const int cache_cells = grid.spec().cache_segment_cells;

  for (int idx : order) {
    const TransportTask& transport =
        schedule.transports[static_cast<std::size_t>(idx)];
    Task task;
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

    std::vector<Point> path;
    double start = task.start;
    double delay = 0.0;

    if (options.conflict_aware) {
      for (int attempt = 0;; ++attempt) {
        path = astar(grid, sources, targets, task, start, wash_model,
                     options, cache_cells);
        if (!path.empty()) break;
        if (attempt >= options.max_postpone_steps) {
          throw RoutingError("unroutable transport task (after postponing)");
        }
        start += options.postpone_step;
        delay += options.postpone_step;
      }
      if (delay > 0.0) ++result.conflict_postponements;
    } else {
      path = astar(grid, sources, targets, task, start, wash_model, options,
                   cache_cells);
      if (path.empty()) {
        throw RoutingError("unroutable transport task (spatially blocked)");
      }
      const double feasible = earliest_feasible_start(
          grid, path, task, start, wash_model, cache_cells);
      if (feasible > start) {
        delay = feasible - start;
        start = feasible;
        ++result.conflict_postponements;
      }
    }

    // Wash flush before the movement: one buffer flush over the path whose
    // duration is the slowest residue on it (Fig. 9 accounting).
    double flush = 0.0;
    for (const Point& p : path) {
      flush = std::max(flush, grid.wash_needed(p, task.fluid, wash_model));
    }

    occupy(grid, path, task, start, flush, wash_model, options, cache_cells);

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
