#include "route/router.hpp"

#include <gtest/gtest.h>

#include <string>

#include "route/reference_router.hpp"
#include "route/router_core.hpp"
#include "route/validator.hpp"

namespace fbmb {
namespace {

/// Two mixers on a 20x20 grid, far apart.
struct RouterFixture {
  Allocation alloc{AllocationSpec{3, 0, 0, 0}};
  ChipSpec chip;
  Placement placement{3};
  WashModel wash;

  RouterFixture() {
    chip.grid_width = 20;
    chip.grid_height = 20;
    placement.at(ComponentId{0}) = {{1, 1}, false};
    placement.at(ComponentId{1}) = {{14, 1}, false};
    placement.at(ComponentId{2}) = {{1, 14}, false};
  }

  RoutingGrid grid() { return RoutingGrid(chip, alloc, placement); }

  /// A grid whose target-mixer (component 1) ports are all reserved for
  /// [0, until): no transport into it can start before `until`.
  RoutingGrid grid_with_busy_target(double until) {
    RoutingGrid g = grid();
    for (const Point& p : g.ports(ComponentId{1})) {
      g.cell(p).occupancy.insert_disjoint({0.0, until});
    }
    return g;
  }

  static TransportTask transport(int id, int from, int to, double dep,
                                 double consume,
                                 const Fluid& fluid = Fluid{"f", 1e-5}) {
    TransportTask t;
    t.id = id;
    t.producer = OperationId{id};
    t.consumer = OperationId{id + 100};
    t.from = ComponentId{from};
    t.to = ComponentId{to};
    t.fluid = fluid;
    t.departure = dep;
    t.transport_time = 2.0;
    t.consume = consume;
    return t;
  }
};

TEST(Router, RoutesSingleTransport) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0)};
  const auto result = route_transports(grid, s, fx.wash);
  ASSERT_EQ(result.paths.size(), 1u);
  const auto& path = result.paths[0];
  EXPECT_GT(path.cells.size(), 1u);
  EXPECT_DOUBLE_EQ(path.start, 0.0);
  EXPECT_DOUBLE_EQ(path.transport_end, 2.0);
  EXPECT_DOUBLE_EQ(path.delay, 0.0);
  EXPECT_DOUBLE_EQ(path.wash_duration, 0.0);  // clean chip
  EXPECT_DOUBLE_EQ(result.total_wash_time, 0.0);
}

TEST(Router, ShortestPathOnEmptyGrid) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0)};
  const auto result = route_transports(grid, s, fx.wash);
  // Footprints: x1..4 and x14..17 at same y-band; nearest ports are
  // (5, y) and (13, y): 8 apart, so path has 9 cells (8 edges).
  EXPECT_EQ(result.paths[0].length_cells(), 8);
}

TEST(Router, SameComponentTransportIsStub) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 0, 0.0, 10.0)};
  const auto result = route_transports(grid, s, fx.wash);
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].cells.size(), 1u);  // parked in one port cell
  EXPECT_EQ(result.paths[0].length_cells(), 0);
  EXPECT_DOUBLE_EQ(result.paths[0].cache_until, 10.0);
}

TEST(Router, CacheDwellOccupiesTailCells) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  // Arrives at 2.0, consumed at 30.0: 28 s channel cache.
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 30.0)};
  const auto result = route_transports(grid, s, fx.wash);
  const auto& path = result.paths[0];
  EXPECT_DOUBLE_EQ(path.cache_until, 30.0);
  // The destination-side tail cell is occupied until consume.
  const Point tail = path.cells.back();
  EXPECT_TRUE(grid.cell(tail).occupancy.overlaps({20.0, 21.0}));
  // The source-side head cell is free again after the movement.
  const Point head = path.cells.front();
  EXPECT_FALSE(grid.cell(head).occupancy.overlaps({20.0, 21.0}));
}

TEST(Router, WashAwareWeightUpdate) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  const Fluid slow{"cells", 5e-8};  // wash 6 s
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0, slow)};
  RouterOptions opts;  // wash-aware defaults
  const auto result = route_transports(grid, s, fx.wash, opts);
  for (const Point& p : result.paths[0].cells) {
    EXPECT_DOUBLE_EQ(grid.cell(p).weight, 6.0);
    ASSERT_TRUE(grid.cell(p).residue.has_value());
    EXPECT_EQ(grid.cell(p).residue->name, "cells");
  }
}

TEST(Router, BaselineKeepsConstantWeights) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  const Fluid slow{"cells", 5e-8};
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0, slow)};
  RouterOptions opts;
  opts.wash_aware_weights = false;
  const auto result = route_transports(grid, s, fx.wash, opts);
  for (const Point& p : result.paths[0].cells) {
    EXPECT_DOUBLE_EQ(grid.cell(p).weight, fx.chip.initial_cell_weight);
    // Residue still tracked (needed for wash accounting).
    EXPECT_TRUE(grid.cell(p).residue.has_value());
  }
}

TEST(Router, SequentialSameFluidNeedsNoWash) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  const Fluid f{"buffer", 1e-5};
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0, f),
                  RouterFixture::transport(1, 0, 1, 10.0, 12.0, f)};
  const auto result = route_transports(grid, s, fx.wash);
  EXPECT_DOUBLE_EQ(result.total_wash_time, 0.0);
}

TEST(Router, ForeignResidueTriggersWash) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  const Fluid slow{"cells", 5e-8};    // leaves 6 s residue
  const Fluid fast{"buffer", 1e-5};
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0, slow),
                  RouterFixture::transport(1, 0, 1, 20.0, 22.0, fast)};
  // Wash-aware weights make the second task prefer reusing the first path
  // anyway if it is cheapest; with weights off it takes the same shortest
  // path deterministically and must flush the 6 s residue.
  RouterOptions opts;
  opts.wash_aware_weights = false;
  const auto result = route_transports(grid, s, fx.wash, opts);
  EXPECT_DOUBLE_EQ(result.paths[1].wash_duration, 6.0);
  EXPECT_DOUBLE_EQ(result.total_wash_time, 6.0);
}

TEST(Router, ConcurrentTasksDoNotConflict) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  // Two tasks moving at the same time between crossing pairs.
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0),
                  RouterFixture::transport(1, 2, 1, 0.0, 2.0)};
  const auto result = route_transports(grid, s, fx.wash);
  RoutingGrid fresh(fx.chip, fx.alloc, fx.placement);
  const auto errors = validate_routing(result, s, fresh, fx.wash);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_DOUBLE_EQ(result.delays[0], 0.0);
  EXPECT_DOUBLE_EQ(result.delays[1], 0.0);
}

TEST(Router, BaselinePostponesOnConflict) {
  // Force both tasks through a 1-wide corridor at the same time: the
  // wash-oblivious baseline router shares the shortest corridor and must
  // postpone the second task.
  Allocation alloc{AllocationSpec{2, 0, 0, 0}};
  ChipSpec chip;
  chip.grid_width = 11;
  chip.grid_height = 5;
  Placement placement{2};
  placement.at(ComponentId{0}) = {{0, 1}, false};   // x0..3
  placement.at(ComponentId{1}) = {{7, 1}, false};   // x7..10
  WashModel wash;
  RoutingGrid grid(chip, alloc, placement);
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0),
                  RouterFixture::transport(1, 0, 1, 1.0, 3.0)};
  RouterOptions opts;
  opts.wash_aware_weights = false;
  opts.conflict_aware = false;
  const auto result = route_transports(grid, s, wash, opts);
  EXPECT_GT(result.delays[1], 0.0);
  EXPECT_EQ(result.conflict_postponements, 1);
}

TEST(Router, TaskOrderFollowsStartTimes) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 10.0, 12.0),
                  RouterFixture::transport(1, 2, 1, 0.0, 2.0)};
  const auto result = route_transports(grid, s, fx.wash);
  // Routed order is by start time: transport 1 (t=0) first.
  ASSERT_EQ(result.paths.size(), 2u);
  EXPECT_EQ(result.paths[0].transport_id, 1);
  EXPECT_EQ(result.paths[1].transport_id, 0);
}

TEST(Router, DeterministicResults) {
  RouterFixture fx;
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0),
                  RouterFixture::transport(1, 2, 1, 0.0, 2.0),
                  RouterFixture::transport(2, 0, 2, 5.0, 7.0)};
  auto grid1 = fx.grid();
  auto grid2 = fx.grid();
  const auto r1 = route_transports(grid1, s, fx.wash);
  const auto r2 = route_transports(grid2, s, fx.wash);
  ASSERT_EQ(r1.paths.size(), r2.paths.size());
  for (std::size_t i = 0; i < r1.paths.size(); ++i) {
    EXPECT_EQ(r1.paths[i].cells, r2.paths[i].cells);
  }
}

TEST(Router, PathsAvoidFootprints) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0)};
  const auto result = route_transports(grid, s, fx.wash);
  for (const Point& p : result.paths[0].cells) {
    EXPECT_FALSE(grid.blocked(p)) << to_string(p);
  }
}

TEST(Router, OccupyConflictThrowsRoutingError) {
  // Regression: in release builds occupy() used to assert (a no-op under
  // NDEBUG) and silently keep a conflicting reservation. The only reachable
  // path to such a conflict is the 1000-iteration cap of
  // earliest_feasible_start: alternating one-second occupancy combs on two
  // adjacent corridor cells advance the feasible start by exactly one
  // second per iteration, so the cap returns a start that still overlaps
  // one comb — which occupy must reject loudly in every build type.
  Allocation alloc{AllocationSpec{2, 0, 0, 0}};
  ChipSpec chip;
  chip.grid_width = 11;
  chip.grid_height = 5;
  Placement placement{2};
  placement.at(ComponentId{0}) = {{0, 1}, false};  // x0..3, y1..3
  placement.at(ComponentId{1}) = {{7, 1}, false};  // x7..10, y1..3
  WashModel wash;
  RoutingGrid grid(chip, alloc, placement);
  // Wall off everything except the single corridor (4,2)-(5,2)-(6,2).
  for (int x = 0; x < chip.grid_width; ++x) {
    grid.cell(Point{x, 0}).blocked = true;
    grid.cell(Point{x, 4}).blocked = true;
  }
  for (int x = 4; x <= 6; ++x) {
    grid.cell(Point{x, 1}).blocked = true;
    grid.cell(Point{x, 3}).blocked = true;
  }
  // Combs: (4,2) busy on even seconds, (5,2) busy on odd seconds, well past
  // the 1000-iteration horizon.
  for (int k = 0; k <= 1500; ++k) {
    ASSERT_TRUE(grid.cell(Point{4, 2})
                    .occupancy.insert_disjoint({2.0 * k, 2.0 * k + 1.0}));
    ASSERT_TRUE(grid.cell(Point{5, 2})
                    .occupancy.insert_disjoint(
                        {2.0 * k + 1.0, 2.0 * k + 2.0}));
  }
  Schedule s;
  TransportTask t = RouterFixture::transport(0, 0, 1, 0.0, 1.0);
  t.transport_time = 1.0;  // hold exactly one second per cell
  s.transports = {t};
  RouterOptions opts;
  opts.wash_aware_weights = false;
  opts.conflict_aware = false;  // postponement mode hits the iteration cap
  EXPECT_THROW(route_transports(grid, s, wash, opts), RoutingError);
}

TEST(Router, StatsCountSearchEffort) {
  RouterFixture fx;
  auto grid = fx.grid();
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0),
                  RouterFixture::transport(1, 2, 1, 0.0, 2.0)};
  const auto result = route_transports(grid, s, fx.wash);
  EXPECT_EQ(result.stats.tasks_routed, 2u);
  EXPECT_GT(result.stats.nodes_expanded, 0u);
  EXPECT_GT(result.stats.heap_pushes, 0u);
  // One heuristic field per distinct target component (component 1 twice).
  EXPECT_EQ(result.stats.distance_fields_built, 1u);
}

TEST(Router, CertifiedPostponementSkipsFailingSearches) {
  // Every start before 50 s fails, because all target ports are busy. The
  // router must postpone 50 steps to exactly the reference's path and
  // start, but the failure at 0 s certifies every retry until a port
  // frees up, so it searches twice where the reference searches 51 times.
  RouterFixture fx;
  auto grid = fx.grid_with_busy_target(50.0);
  auto ref_grid = fx.grid_with_busy_target(50.0);
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0)};
  const auto result = route_transports(grid, s, fx.wash);
  const auto ref = route_transports_reference(ref_grid, s, fx.wash);
  EXPECT_TRUE(identical_routing(result, ref));
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].start, 50.0);
  EXPECT_EQ(result.paths[0].delay, 50.0);
  EXPECT_EQ(result.stats.postponement_steps, 50u);
  // A search expands each cell at most once (the Manhattan heuristic is
  // consistent: every step costs at least 1), so two searches expand at
  // most two grids' worth of cells; 51 searches expand ~50 failed
  // floods of the reachable region.
  const auto cells = static_cast<std::uint64_t>(fx.chip.grid_width) *
                     static_cast<std::uint64_t>(fx.chip.grid_height);
  EXPECT_LE(result.stats.nodes_expanded, 2 * cells);
}

TEST(Router, GivesUpAfterMaxPostponeStepsLikeReference) {
  // The target ports stay busy past the 20-step postponement budget: both
  // routers give up with the same error, certified retries or not.
  RouterFixture fx;
  auto grid = fx.grid_with_busy_target(1000.0);
  auto ref_grid = fx.grid_with_busy_target(1000.0);
  Schedule s;
  s.transports = {RouterFixture::transport(0, 0, 1, 0.0, 2.0)};
  RouterOptions opts;
  opts.max_postpone_steps = 20;
  std::string core_error;
  std::string ref_error;
  try {
    route_transports(grid, s, fx.wash, opts);
  } catch (const RoutingError& e) {
    core_error = e.what();
  }
  try {
    route_transports_reference(ref_grid, s, fx.wash, opts);
  } catch (const RoutingError& e) {
    ref_error = e.what();
  }
  EXPECT_EQ(core_error, "unroutable transport task (after postponing)");
  EXPECT_EQ(core_error, ref_error);
}

TEST(Router, PostponedProbeLogIsTheFinalSearchReadSet) {
  // Incremental reuse verifies a task against the read-set of the search
  // that committed its path, so after certified retries the probe log
  // must hold exactly what one search at the final start records.
  RouterFixture fx;
  auto grid = fx.grid_with_busy_target(50.0);
  const RouterOptions opts;
  RouteStats stats;
  RouterCore core(grid, fx.wash, opts, &stats);
  const std::vector<Point> sources = grid.ports(ComponentId{0});
  const std::vector<Point> targets = grid.ports(ComponentId{1});
  const RouteTask task{0, ComponentId{0}, ComponentId{1}, Fluid{"f", 1e-5},
                       0.0, 2.0, 0.0};
  core.begin_task(task, sources, targets, ComponentId{1});
  std::vector<RouterCore::Probe> postponed;
  core.set_probe_log(&postponed);
  double start = task.start;
  double delay = 0.0;
  const std::vector<Point> path = core.find_path_postponed(start, delay);
  EXPECT_EQ(start, 50.0);
  std::vector<RouterCore::Probe> single;
  core.set_probe_log(&single);
  EXPECT_EQ(core.find_path(start), path);
  ASSERT_EQ(postponed.size(), single.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(postponed[i].cell, single[i].cell) << i;
    EXPECT_EQ(postponed[i].feasible, single[i].feasible) << i;
    EXPECT_EQ(postponed[i].weight, single[i].weight) << i;
  }
}

TEST(RoutingResult, DistinctEdgesCountsSharingOnce) {
  RoutingResult result;
  RoutedPath a;
  a.from_component = 0;
  a.to_component = 1;
  a.cells = {{0, 0}, {1, 0}, {2, 0}};
  RoutedPath b = a;  // identical path: same component stubs, same edges
  result.paths = {a, b};
  // 2 cell-cell edges + 2 connection stubs, shared between both paths.
  EXPECT_EQ(result.distinct_channel_edges(), 4);
  EXPECT_EQ(result.total_routed_cells(), 4);
  EXPECT_DOUBLE_EQ(result.total_channel_length_mm(10.0), 40.0);
}

TEST(RoutingResult, ReversedPathSharesEdges) {
  RoutingResult result;
  RoutedPath a;
  a.from_component = 0;
  a.to_component = 1;
  a.cells = {{0, 0}, {1, 0}};
  RoutedPath b;
  b.from_component = 1;
  b.to_component = 0;
  b.cells = {{1, 0}, {0, 0}};  // same segment, opposite direction
  result.paths = {a, b};
  // 1 undirected edge + stubs: (c0,(0,0)), (c1,(1,0)) appear in both.
  EXPECT_EQ(result.distinct_channel_edges(), 3);
}

}  // namespace
}  // namespace fbmb
