// The flat-array A* routing core behind IncrementalRouter
// (incremental_router.cpp), the one routing pipeline: route_transports is
// its first round and the route–retime fixpoint runs its later rounds.
//
// This is an internal engine header: RouterCore exposes the per-task
// routing pipeline (begin_task / find_path / find_path_postponed /
// earliest_feasible_start / flush_duration / occupy) plus the
// cell-indexed wash query the incremental router needs to replay
// committed paths. The public routing API stays route/router.hpp and
// route/incremental_router.hpp.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "biochip/wash_model.hpp"
#include "route/grid.hpp"
#include "route/router.hpp"
#include "route/types.hpp"

namespace fbmb {

/// One unit of routing work derived from a TransportTask.
struct RouteTask {
  int transport_id;
  ComponentId from;
  ComponentId to;
  Fluid fluid;
  double start;        ///< departure
  double transport_time;
  double cache_dwell;  ///< consume - arrival (>= 0)
};

/// Flat-array A* workspace, allocated once per router and reused for every
/// task. All per-task state (best g, parent links, target membership, wash
/// times) lives in dense grid-indexed arrays that are "cleared" by bumping
/// a generation stamp, so routing a task performs no bookkeeping
/// allocation. Produces bit-identical results to the map-based reference
/// router (oracle/reference_router.cpp): the g/f arithmetic is the same
/// expression tree, the heuristic below equals the reference's
/// min-Manhattan scan, and the open list pops in the same (f, g, point)
/// total order.
///
/// The workspace outlives individual routing passes: the incremental
/// fixpoint router keeps one RouterCore across rounds (ports and
/// blockages are static within a fixpoint, so the heuristic distance
/// fields stay valid) and rebinds the stats sink per round via
/// set_stats().
class RouterCore {
 public:
  RouterCore(RoutingGrid& grid, const WashModel& wash_model,
             const RouterOptions& opts, RouteStats* stats)
      : grid_(grid),
        wash_model_(wash_model),
        opts_(opts),
        stats_(stats),
        width_(grid.width()),
        height_(grid.height()),
        size_(static_cast<std::size_t>(width_) *
              static_cast<std::size_t>(height_)),
        cache_cells_(grid.spec().cache_segment_cells),
        uniform_weight_(grid.spec().initial_cell_weight),
        cells_(size_ ? &grid.cell(Point{0, 0}) : nullptr),
        dist_fields_(grid.allocation()->size()),
        best_g_(size_, 0.0),
        parent_(size_, -1),
        wash_(size_, 0.0),
        g_stamp_(size_, 0),
        target_stamp_(size_, 0),
        wash_stamp_(size_, 0),
        probe_stamp_(size_, 0) {}

  /// Redirects the search-effort counters (e.g. to a new round's
  /// RoutingResult when one core serves several routing rounds).
  void set_stats(RouteStats* stats) { stats_ = stats; }

  /// One recorded read of a cell's dynamic state during a search. The A*
  /// in find_path is a deterministic function of the static grid (ports,
  /// blockages, distance fields) plus, per probed cell, its weight and
  /// its feasibility verdict — so a past search whose every probe
  /// reproduces against the current grid would unfold identically (same
  /// pops, same relaxations, same path). A cell's wash lead enters the
  /// search only through the verdict (it widens the checked interval),
  /// so it is not stored: verification recomputes the verdict from the
  /// current wash. Where wash feeds the *commit* — the occupied interval
  /// and the flush duration of the cells actually on the path — the
  /// caller re-checks it per path cell before replaying.
  struct Probe {
    std::int32_t cell;
    bool feasible;
    double weight;
  };

  /// Installs a sink recording one Probe per (search, cell) probed by
  /// find_path; nullptr disables recording. The caller owns clearing the
  /// log between tasks (find_path_postponed also clears it before each
  /// search it runs).
  void set_probe_log(std::vector<Probe>* log) { probe_log_ = log; }

  /// True when every probe of a recorded search reproduces for the
  /// current task at `start`: same weight, and the feasibility verdict
  /// recomputed from the current grid state matches the recorded one.
  /// Read-only — counts no stats, so replay checks do not inflate the
  /// telemetry of searches never performed.
  bool probes_hold(const std::vector<Probe>& probes, double start) {
    for (const Probe& p : probes) {
      const auto i = static_cast<std::size_t>(p.cell);
      if (cell_weight(i) != p.weight) return false;
      const bool ok = !cells_[i].blocked &&
                      (!opts_.conflict_aware || !conflicts(i, start));
      if (ok != p.feasible) return false;
    }
    return true;
  }

  /// Installs a task: bumps the task generation (invalidating the target
  /// bitmap and wash cache at once), marks the target bitmap, and binds
  /// the heuristic distance field for the target component.
  void begin_task(const RouteTask& task, const std::vector<Point>& sources,
                  const std::vector<Point>& targets,
                  ComponentId target_component) {
    ++gen_;
    task_ = &task;
    sources_ = &sources;
    targets_ = &targets;
    dist_ = distance_field(target_component, targets).data();
    for (const Point& t : targets) target_stamp_[index(t)] = gen_;
  }

  /// Multi-source multi-target A* for the current task at the given start
  /// time. Returns the path (source..target) or empty if unreachable under
  /// the feasibility predicate. Each call is a fresh search: the search
  /// generation is bumped so best-g/parent state from a previous
  /// postponement attempt (same task, earlier start) is invalidated, just
  /// like the reference router's per-call maps. A failed search leaves
  /// its source-side failure certificate in source_cert_ (see
  /// find_path_postponed).
  std::vector<Point> find_path(double start) {
    ++search_gen_;
    heap_.clear();
    source_cert_.clear();
    for (const Point& s : *sources_) {
      const std::size_t i = index(s);
      if (!feasible(i, start)) {
        record_infeasible(i);
        continue;
      }
      const double weight = cell_weight(i);
      const double g = 1.0 + weight;
      if (g_stamp_[i] != search_gen_ || g < best_g_[i]) {
        if (probe_log_ && g_stamp_[i] != search_gen_) {
          record_feasible(i, weight);
        }
        g_stamp_[i] = search_gen_;
        best_g_[i] = g;
        parent_[i] = -1;
        push_open({g + dist_[i], g, s});
      }
    }
    while (!heap_.empty()) {
      const Node node = pop_open();
      const std::size_t i = index(node.point);
      if (node.g > best_g_[i]) continue;  // stale (g_stamp_[i]==search_gen_)
      ++stats_->nodes_expanded;
      if (target_stamp_[i] == gen_) return reconstruct(i);
      const int x = node.point.x;
      const int y = node.point.y;
      // Same neighbor order as RoutingGrid::neighbors (irrelevant for the
      // pop order, which is total, but kept for symmetry).
      if (x + 1 < width_) relax(i, {x + 1, y}, node.g, start);
      if (x > 0) relax(i, {x - 1, y}, node.g, start);
      if (y + 1 < height_) relax(i, {x, y + 1}, node.g, start);
      if (y > 0) relax(i, {x, y - 1}, node.g, start);
    }
    return {};
  }

  /// Conflict-aware postponement (Eq. 5 prices a conflicting cell at
  /// +inf, so a task with no feasible path waits): searches at `start`
  /// and, while no path exists, postpones by kPostponeStep and tries
  /// again. Advances `start` and `delay` by the postponement, counts each
  /// step, and throws RoutingError once a search at the
  /// max_postpone_steps-th step still fails. An installed probe log is
  /// cleared before each search, so it ends holding the read-set of the
  /// final, successful one.
  ///
  /// A retry searches only when it might succeed. A failed search
  /// expands every cell reachable from the feasible sources through
  /// feasible cells (region R, which holds no target) and probes every
  /// neighbour of R. The non-blocked cells it found infeasible, sources
  /// included, are its *failure certificate*: a path at a later start
  /// has to start outside R or leave it, through a certificate cell
  /// either way, since blocked cells never unblock. Within one task only
  /// the start changes a verdict (occupancy, residues and the distance
  /// field are fixed until occupy()), so while every certificate cell
  /// still conflicts, the search would fail again and is skipped. A
  /// flood from the targets yields a second certificate the same way
  /// (flood_targets); either one holding proves failure. Each step still
  /// counts and checks max_postpone_steps in the original order, so
  /// paths, starts, delays and the error are exactly those of searching
  /// every step; the search counters count only the searches that ran.
  /// docs/ALGORITHMS.md §3 gives the proof.
  std::vector<Point> find_path_postponed(double& start, double& delay) {
    double failed_at = start;
    bool flooded = false;
    for (int attempt = 0;; ++attempt) {
      if (attempt == 0 || !certified_to_fail(start, failed_at, flooded)) {
        if (probe_log_) probe_log_->clear();
        std::vector<Point> path = find_path(start);
        if (!path.empty()) return path;
        failed_at = start;
        flooded = false;
      }
      if (attempt >= opts_.max_postpone_steps) {
        throw RoutingError("unroutable transport task (after postponing)");
      }
      start += kPostponeStep;
      delay += kPostponeStep;
      ++stats_->postponement_steps;
    }
  }

  /// Earliest start >= desired at which every path cell is free for its
  /// required interval (baseline conflict resolution by postponement).
  /// Accepts t only when no cell overlaps the exact interval occupy() will
  /// insert, so a returned start can never make insert_disjoint fail: an
  /// epsilon-based fixpoint test here could accept a start with a sliver
  /// overlap that occupy() then rejects.
  double earliest_feasible_start(const std::vector<Point>& path,
                                 double desired) {
    double t = desired;
    const int n = static_cast<int>(path.size());
    for (int iteration = 0; iteration < 1000; ++iteration) {
      double needed = t;
      bool conflict = false;
      for (int i = 0; i < n; ++i) {
        const std::size_t idx = index(path[static_cast<std::size_t>(i)]);
        const double wash = wash_needed(idx);
        const bool tail = (n - 1 - i) < cache_cells_;
        // Exactly the interval occupy() inserts for this cell.
        const double lo = t - wash;
        const double hi = t + task_->transport_time +
                          (tail ? task_->cache_dwell : 0.0);
        const IntervalSet& occ = cells_[idx].occupancy;
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

  /// Wash flush before the movement: one buffer flush over the path whose
  /// duration is the slowest residue on it (Fig. 9 accounting).
  double flush_duration(const std::vector<Point>& path) {
    double flush = 0.0;
    for (const Point& p : path) {
      flush = std::max(flush, wash_needed(index(p)));
    }
    return flush;
  }

  /// Commits the routed task: occupancy slots, residues, weights. Throws
  /// RoutingError if a reservation overlaps existing occupancy — that
  /// would mean corrupt (silently conflicting) routing state, so it is a
  /// hard error in every build type, not an assert.
  void occupy(const std::vector<Point>& path, double start) {
    const int n = static_cast<int>(path.size());
    for (int i = 0; i < n; ++i) {
      const std::size_t idx = index(path[static_cast<std::size_t>(i)]);
      const double wash = wash_needed(idx);
      const bool tail = (n - 1 - i) < cache_cells_;
      const double end = start + task_->transport_time +
                         (tail ? task_->cache_dwell : 0.0);
      CellState& cell = cells_[idx];
      if (!cell.occupancy.insert_disjoint({start - wash, end})) {
        throw RoutingError(
            "internal occupancy conflict: feasibility accepted an interval "
            "that overlaps an existing reservation");
      }
      cell.residue = task_->fluid;
      if (opts_.wash_aware_weights) {
        cell.weight = wash_model_.wash_time(task_->fluid);
      }
    }
  }

  void count_task_routed() { ++stats_->tasks_routed; }

  std::size_t index(const Point& p) const {
    return static_cast<std::size_t>(p.y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(p.x);
  }

  int cache_cells() const { return cache_cells_; }

  /// Per-(task, cell) wash time, derived once from the cell's residue and
  /// memoized under the task's generation stamp. Valid for the whole task
  /// (search, postponement retries, flush accounting, occupy): residues
  /// only change in occupy, which touches each path cell after reading its
  /// cached value, and A* paths never revisit a cell.
  double wash_needed(std::size_t i) {
    if (wash_stamp_[i] != gen_) {
      wash_stamp_[i] = gen_;
      const CellState& c = cells_[i];
      wash_[i] = (!c.residue || c.residue->name == task_->fluid.name)
                     ? 0.0
                     : wash_model_.wash_time(*c.residue);
    }
    return wash_[i];
  }

 private:
  struct Node {
    double f;
    double g;
    Point point;
    bool operator>(const Node& o) const {
      if (f != o.f) return f > o.f;
      if (g != o.g) return g > o.g;
      return o.point < point;  // deterministic tiebreak
    }
  };

  double cell_weight(std::size_t i) const {
    return opts_.wash_aware_weights ? cells_[i].weight : uniform_weight_;
  }

  /// True when cell i's occupation slots overlap the interval the task
  /// needs on it at `start`: the wash lead, the movement window and, for
  /// tail cells (near a target port), the cache dwell. dist_ equals the
  /// reference's min-Manhattan scan over all targets. Counts nothing.
  bool conflicts(std::size_t i, double start) {
    const double wash = wash_needed(i);
    double end = start + task_->transport_time;
    if (dist_[i] <= cache_cells_ && task_->cache_dwell > 0.0) {
      end += task_->cache_dwell;
    }
    return cells_[i].occupancy.overlaps({start - wash, end});
  }

  /// Eq. 5 feasibility: blocked cells and (in conflict-aware mode) cells
  /// whose occupation slots overlap the task's required interval are +inf.
  bool feasible(std::size_t i, double start) {
    if (cells_[i].blocked) return false;
    if (!opts_.conflict_aware) return true;
    if (conflicts(i, start)) {
      ++stats_->feasibility_rejections;
      return false;
    }
    return true;
  }

  /// Records the first probe of an infeasible cell, in the probe log if
  /// one is installed and, unless blocked, in the failure certificate.
  /// Infeasible cells are the only ones that need their own dedup stamp:
  /// a rejected cell never enters the g-relaxation, so re-probes from
  /// other neighbours cannot be deduped any cheaper. They are a small
  /// minority of probes, so the stamp's random access stays off the hot
  /// path.
  void record_infeasible(std::size_t i) {
    if (probe_stamp_[i] == search_gen_) return;
    probe_stamp_[i] = search_gen_;
    if (probe_log_) {
      probe_log_->push_back(
          {static_cast<std::int32_t>(i), false, cell_weight(i)});
    }
    if (!cells_[i].blocked) {
      source_cert_.push_back(static_cast<std::int32_t>(i));
    }
  }

  /// True when every cell of a failure certificate still conflicts at
  /// `start` — then a search at `start` fails (find_path_postponed).
  bool still_conflicting(const std::vector<std::int32_t>& cert,
                         double start) {
    for (const std::int32_t i : cert) {
      if (!conflicts(static_cast<std::size_t>(i), start)) return false;
    }
    return true;
  }

  /// Whether a failure at `failed_at` proves a search at `start` fails
  /// too: the source-side certificate from the failed search holds, or
  /// else the target-side one, flooded on first use.
  bool certified_to_fail(double start, double failed_at, bool& flooded) {
    if (still_conflicting(source_cert_, start)) return true;
    if (!flooded) {
      flood_targets(failed_at);
      flooded = true;
    }
    return still_conflicting(target_cert_, start);
  }

  /// Target-side failure certificate of a search that failed at `start`:
  /// a BFS from the targets through cells feasible at `start` collects
  /// into target_cert_ the non-blocked infeasible cells on the flooded
  /// region's boundary and the non-blocked infeasible targets. The
  /// region holds no source (the search would have found a path), so a
  /// later path has to cross that boundary. Runs lazily, once the
  /// source-side certificate breaks, and uses its own search generation
  /// for visit stamps; the next find_path bumps it again.
  void flood_targets(double start) {
    ++search_gen_;
    target_cert_.clear();
    bfs_queue_.clear();
    auto visit = [&](std::size_t i) {
      if (g_stamp_[i] == search_gen_ || probe_stamp_[i] == search_gen_ ||
          cells_[i].blocked) {
        return;
      }
      if (conflicts(i, start)) {
        probe_stamp_[i] = search_gen_;
        target_cert_.push_back(static_cast<std::int32_t>(i));
        return;
      }
      g_stamp_[i] = search_gen_;
      bfs_queue_.push_back(static_cast<std::int32_t>(i));
    };
    for (const Point& t : *targets_) visit(index(t));
    for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
      const std::size_t cur = static_cast<std::size_t>(bfs_queue_[head]);
      const int x = static_cast<int>(cur) % width_;
      const int y = static_cast<int>(cur) / width_;
      if (x + 1 < width_) visit(cur + 1);
      if (x > 0) visit(cur - 1);
      if (y + 1 < height_) visit(cur + static_cast<std::size_t>(width_));
      if (y > 0) visit(cur - static_cast<std::size_t>(width_));
    }
  }

  /// Records a feasible cell's probe. Called only on the cell's first
  /// g-relaxation of this search (the caller has just read g_stamp_), so
  /// dedup is free — no second random array access per relaxation.
  void record_feasible(std::size_t i, double weight) {
    probe_log_->push_back({static_cast<std::int32_t>(i), true, weight});
  }

  void relax(std::size_t from, Point np, double node_g, double start) {
    const std::size_t i = index(np);
    if (!feasible(i, start)) {
      record_infeasible(i);
      return;
    }
    const double weight = cell_weight(i);
    const double g = node_g + 1.0 + weight;
    if (g_stamp_[i] != search_gen_ || g < best_g_[i]) {
      if (probe_log_ && g_stamp_[i] != search_gen_) {
        record_feasible(i, weight);
      }
      g_stamp_[i] = search_gen_;
      best_g_[i] = g;
      parent_[i] = static_cast<std::int32_t>(from);
      push_open({g + dist_[i], g, np});
    }
  }

  void push_open(const Node& node) {
    heap_.push_back(node);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Node>{});
    ++stats_->heap_pushes;
  }

  Node pop_open() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Node>{});
    const Node node = heap_.back();
    heap_.pop_back();
    return node;
  }

  std::vector<Point> reconstruct(std::size_t goal) const {
    std::vector<Point> path;
    for (std::int32_t cur = static_cast<std::int32_t>(goal); cur >= 0;
         cur = parent_[static_cast<std::size_t>(cur)]) {
      const int idx = static_cast<int>(cur);
      path.push_back({idx % width_, idx / width_});
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  /// Heuristic distance field for a target component: multi-source BFS
  /// from its port cells over the full grid (blockages included, exactly
  /// like a Manhattan bound ignores them), so field[i] == min over targets
  /// of manhattan_distance — the reference heuristic, precomputed. Built
  /// once per component per RouterCore lifetime: ports and blockages
  /// never change while routing, only weights and occupancy do, so the
  /// fields survive fixpoint rounds too.
  const std::vector<std::int32_t>& distance_field(
      ComponentId component, const std::vector<Point>& targets) {
    std::vector<std::int32_t>& field =
        dist_fields_[static_cast<std::size_t>(component.value)];
    if (!field.empty()) return field;
    field.assign(size_, -1);
    bfs_queue_.clear();
    for (const Point& t : targets) {
      const std::size_t i = index(t);
      if (field[i] != 0) {
        field[i] = 0;
        bfs_queue_.push_back(static_cast<std::int32_t>(i));
      }
    }
    for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
      const std::int32_t cur = bfs_queue_[head];
      const std::int32_t d = field[static_cast<std::size_t>(cur)] + 1;
      const int x = static_cast<int>(cur) % width_;
      const int y = static_cast<int>(cur) / width_;
      auto visit = [&](std::int32_t i) {
        if (field[static_cast<std::size_t>(i)] < 0) {
          field[static_cast<std::size_t>(i)] = d;
          bfs_queue_.push_back(i);
        }
      };
      if (x + 1 < width_) visit(cur + 1);
      if (x > 0) visit(cur - 1);
      if (y + 1 < height_) visit(cur + width_);
      if (y > 0) visit(cur - width_);
    }
    ++stats_->distance_fields_built;
    return field;
  }

  RoutingGrid& grid_;
  const WashModel& wash_model_;
  const RouterOptions& opts_;
  RouteStats* stats_;
  const int width_;
  const int height_;
  const std::size_t size_;
  const int cache_cells_;
  const double uniform_weight_;
  CellState* const cells_;  ///< row-major, same layout as RoutingGrid

  const RouteTask* task_ = nullptr;
  const std::vector<Point>* sources_ = nullptr;
  const std::vector<Point>* targets_ = nullptr;
  const std::int32_t* dist_ = nullptr;  ///< current task's heuristic field
  std::uint32_t gen_ = 0;         ///< task generation (targets, wash cache)
  std::uint32_t search_gen_ = 0;  ///< search generation (best g, parents)

  /// One lazily built field per component (stable storage: the outer
  /// vector is sized once, so dist_ pointers stay valid across tasks).
  std::vector<std::vector<std::int32_t>> dist_fields_;
  std::vector<std::int32_t> bfs_queue_;

  // Generation-stamped per-cell state. A stamp != gen_ means "unset".
  std::vector<double> best_g_;
  std::vector<std::int32_t> parent_;  ///< flat cell index; -1 for sources
  std::vector<double> wash_;
  std::vector<std::uint32_t> g_stamp_;
  std::vector<std::uint32_t> target_stamp_;
  std::vector<std::uint32_t> wash_stamp_;
  std::vector<std::uint32_t> probe_stamp_;
  std::vector<Probe>* probe_log_ = nullptr;
  /// Failure certificates (cell indices) of the last failed search: the
  /// non-blocked cells it probed infeasible, and those flood_targets
  /// found on the target side.
  std::vector<std::int32_t> source_cert_;
  std::vector<std::int32_t> target_cert_;

  std::vector<Node> heap_;  ///< open list (std::push_heap/pop_heap)
};

}  // namespace fbmb
