#include "route/incremental_router.hpp"

#include <algorithm>
#include <chrono>

#include "trace/trace.hpp"

namespace fbmb {

namespace {

/// The sequential routing order of `schedule` under options.order
/// (deterministic; the paper routes in non-decreasing start time).
std::vector<int> route_order(const RoutingGrid& grid, const Schedule& schedule,
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

}  // namespace

RoutingResult route_transports(RoutingGrid& grid, const Schedule& schedule,
                               const WashModel& wash_model,
                               const RouterOptions& options) {
  return IncrementalRouter(grid, wash_model, options).route_round(schedule);
}

IncrementalRouter::IncrementalRouter(RoutingGrid& grid,
                                     const WashModel& wash_model,
                                     const RouterOptions& options)
    : options_(options),
      grid_(grid),
      core_(grid_, wash_model, options_, nullptr),
      ports_cache_(grid.allocation()->size()),
      ports_cached_(grid.allocation()->size(), false) {}

const std::vector<Point>& IncrementalRouter::ports(ComponentId id) {
  const auto i = static_cast<std::size_t>(id.value);
  if (!ports_cached_[i]) {
    ports_cache_[i] = grid_.ports(id);
    ports_cached_[i] = true;
  }
  return ports_cache_[i];
}

RouteTask IncrementalRouter::make_route_task(int idx,
                                             const TransportTask& transport) {
  RouteTask task;
  task.transport_id = idx;
  task.from = transport.from;
  task.to = transport.to;
  task.fluid = transport.fluid;
  task.start = transport.departure;
  task.transport_time = transport.transport_time;
  task.cache_dwell = std::max(0.0, transport.consume - transport.arrival());
  return task;
}

RoutingResult IncrementalRouter::route_round(const Schedule& schedule,
                                             FlowStats* flow,
                                             double* reset_seconds,
                                             const Checkpoint& checkpoint) {
  using Clock = std::chrono::steady_clock;
  RoutingResult result;
  result.delays.assign(schedule.transports.size(), 0.0);
  core_.set_stats(&result.stats);
  if (records_.size() != schedule.transports.size()) {
    records_.assign(schedule.transports.size(), TaskRecord{});
  }
  if (round_number_ > 0) {
    const auto reset_start = Clock::now();
    grid_.reset_transients();
    if (reset_seconds) {
      *reset_seconds +=
          std::chrono::duration<double>(Clock::now() - reset_start).count();
    }
  }
  const bool all_dirty = (round_number_ == 0);
  ++round_number_;
  if (flow) ++flow->rounds;

  const std::vector<int> order = route_order(grid_, schedule, options_);
  commit_sweep(schedule, order, all_dirty, result, flow, checkpoint);
  prev_order_ = order;
  return result;
}

void IncrementalRouter::commit_sweep(const Schedule& schedule,
                                     const std::vector<int>& order,
                                     bool all_dirty, RoutingResult& result,
                                     FlowStats* flow,
                                     const Checkpoint& checkpoint) {
  // While `verbatim` holds, this round has replayed the previous round
  // position-for-position, so the grid state is bitwise the state each
  // task searched last round and a timing-clean task replays with no
  // checking at all. The first deviation (order change, timing change,
  // re-route) drops to footprint verification for the rest of the round.
  bool verbatim = !all_dirty;

  const int cache_cells = grid_.spec().cache_segment_cells;

  for (std::size_t position = 0; position < order.size(); ++position) {
    if (checkpoint) checkpoint("route");
    const int idx = order[position];
    const TransportTask& transport =
        schedule.transports[static_cast<std::size_t>(idx)];
    const RouteTask task = make_route_task(idx, transport);

    const std::vector<Point>& sources = ports(task.from);
    const std::vector<Point>& targets =
        task.from == task.to ? sources : ports(task.to);
    if (sources.empty() || targets.empty()) {
      throw RoutingError("component has no free port cells");
    }
    core_.begin_task(task, sources, targets,
                     task.from == task.to ? task.from : task.to);

    TaskRecord& rec = records_[static_cast<std::size_t>(idx)];
    // A bitwise-identical committed window means an identical grid
    // contribution; that (plus an unchanged position) is what lets the
    // verbatim prefix skip verification entirely.
    const bool window_unchanged = !all_dirty && rec.valid &&
                                  rec.start == transport.departure &&
                                  rec.transport_time ==
                                      transport.transport_time &&
                                  rec.cache_dwell == task.cache_dwell;
    bool dirty;
    if (verbatim && window_unchanged && position < prev_order_.size() &&
        prev_order_[position] == idx) {
      dirty = false;  // verbatim prefix: grid state equals last round's
    } else {
      // General reuse needs no window match at all: `start` enters
      // find_path only through the Eq. 5 feasibility verdicts, and
      // probes_hold recomputes each recorded verdict at the *current*
      // departure with the *current* transport time and cache dwell. If
      // they all reproduce, the search — at the shifted window — would
      // unfold identically and commit the stored path with no
      // postponement. This is what makes the retimed downstream cone of
      // a conflict reusable, not just tasks whose times never moved.
      verbatim = false;
      dirty = all_dirty || !rec.valid || rec.footprint.empty() ||
              !core_.probes_hold(rec.footprint, transport.departure);
    }
    if (!dirty) {
      // The probes pin the search's reads, but wash also feeds the
      // commit: each path cell's occupied interval starts wash early and
      // the flush duration sums the leads. Verify per path cell that the
      // wash lead is bitwise the committed one and that the exact
      // reservation interval is still free at the current departure
      // (which in non-conflict-aware mode is also what
      // earliest_feasible_start would have established; in conflict-aware
      // mode the probes imply it for unchanged wash, kept as a single
      // code path). Any mismatch promotes to a re-route.
      const int n = static_cast<int>(rec.cells.size());
      for (int i = 0; i < n; ++i) {
        const Point& p = rec.cells[static_cast<std::size_t>(i)];
        const double wash = core_.wash_needed(core_.index(p));
        if (wash != rec.wash[static_cast<std::size_t>(i)]) {
          dirty = true;
          break;
        }
        const bool tail = (n - 1 - i) < cache_cells;
        const double lo = transport.departure - wash;
        const double hi = transport.departure + task.transport_time +
                          (tail ? task.cache_dwell : 0.0);
        if (grid_.cell(p).occupancy.overlaps({lo, hi})) {
          dirty = true;
          break;
        }
      }
    }

    if (!dirty) {
      // Clean: commit the stored path at the current departure without
      // searching. occupy() recomputes each cell's wash from the
      // (memoized) residue state, which the check above proved equal to
      // the stored leads, so the inserted intervals are exactly the ones
      // a from-scratch commit would insert. (A shifted-window replay
      // only happens on the probe-verified branch, which has already
      // ended the verbatim prefix: the contribution differs from last
      // round's.)
      core_.occupy(rec.cells, transport.departure);
      RoutedPath routed;
      routed.transport_id = idx;
      routed.from_component = task.from.value;
      routed.to_component = task.to.value;
      routed.cells = rec.cells;
      routed.start = transport.departure;
      routed.transport_end = transport.departure + task.transport_time;
      routed.cache_until = routed.transport_end + task.cache_dwell;
      routed.wash_duration = rec.wash_duration;
      // A replay commits at the requested departure with no
      // postponement, so its delay is 0 even when the stored path came
      // from a postponed search.
      routed.delay = 0.0;
      result.total_wash_time += rec.wash_duration;
      result.paths.push_back(std::move(routed));
      // Keep the record's window current so next round's verbatim-prefix
      // comparison sees the contribution actually committed.
      rec.start = transport.departure;
      rec.transport_time = transport.transport_time;
      rec.cache_dwell = task.cache_dwell;
      if (flow) ++flow->transports_reused;
      TRACE_INSTANT("route", "replay");
      continue;
    }

    verbatim = false;
    TRACE_INSTANT("route", "reroute");
    if (flow) {
      ++flow->transports_rerouted;
      if (rec.valid) flow->cells_evicted += rec.cells.size();
    }
    core_.count_task_routed();

    std::vector<Point> path;
    double start = task.start;
    double delay = 0.0;
    if (options_.conflict_aware) {
      TRACE_SPAN("route", "search");
      // The log keeps only the final search's read-set: earlier attempts
      // searched windows the retimed schedule will never ask for.
      core_.set_probe_log(&probe_buffer_);
      path = core_.find_path_postponed(start, delay);
      core_.set_probe_log(nullptr);
      if (delay > 0.0) ++result.conflict_postponements;
    } else {
      {
        TRACE_SPAN("route", "search");
        core_.set_probe_log(&probe_buffer_);
        probe_buffer_.clear();
        path = core_.find_path(start);
        core_.set_probe_log(nullptr);
        if (path.empty()) {
          throw RoutingError("unroutable transport task (spatially blocked)");
        }
      }
      // The search was purely spatial; postponement against the
      // committed occupancy is resolved here.
      const double feasible = core_.earliest_feasible_start(path, start);
      if (feasible > start) {
        delay = feasible - start;
        start = feasible;
        ++result.conflict_postponements;
      }
    }

    const double flush = core_.flush_duration(path);
    core_.occupy(path, start);

    rec.valid = true;
    rec.transport_time = transport.transport_time;
    rec.cache_dwell = task.cache_dwell;
    rec.cells = path;
    rec.wash.resize(path.size());
    for (std::size_t i = 0; i < path.size(); ++i) {
      rec.wash[i] = core_.wash_needed(core_.index(path[i]));
    }
    rec.start = start;
    rec.wash_duration = flush;
    // Swap the read-set into the record and recycle the record's old
    // footprint storage as the next scratch buffer — steady state
    // records without allocating. Infeasible probes go first: conflicts
    // freed by retiming are the likeliest verdicts to flip, so a failing
    // verification aborts early. (std::partition is unstable, but probe
    // order within a group is unobservable: verification is a pure
    // conjunction.)
    rec.footprint.swap(probe_buffer_);
    std::partition(rec.footprint.begin(), rec.footprint.end(),
                   [](const RouterCore::Probe& p) { return !p.feasible; });
    probe_buffer_.clear();
    probe_high_water_ = std::max(probe_high_water_, rec.footprint.size());
    if (probe_buffer_.capacity() < probe_high_water_) {
      probe_buffer_.reserve(probe_high_water_);
    }

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
}

}  // namespace fbmb
