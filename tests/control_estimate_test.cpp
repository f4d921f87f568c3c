#include "route/control_estimate.hpp"

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesis.hpp"

namespace fbmb {
namespace {

RoutedPath straight_path(int from, int to, std::vector<Point> cells,
                         double wash = 0.0) {
  RoutedPath p;
  p.transport_id = 0;
  p.from_component = from;
  p.to_component = to;
  p.cells = std::move(cells);
  p.wash_duration = wash;
  return p;
}

TEST(ControlEstimate, EmptyRouting) {
  const ControlEstimate est = estimate_control_layer({});
  EXPECT_EQ(est.valve_count, 0);
  EXPECT_EQ(est.switching_count, 0);
  EXPECT_DOUBLE_EQ(est.switches_per_valve, 0.0);
}

TEST(ControlEstimate, StraightPathHasNoJunctions) {
  RoutingResult routing;
  routing.paths = {straight_path(0, 1, {{0, 0}, {1, 0}, {2, 0}, {3, 0}})};
  const ControlEstimate est = estimate_control_layer(routing);
  EXPECT_EQ(est.junction_cells, 0);
  EXPECT_EQ(est.port_valves, 2);       // the two port stubs
  EXPECT_EQ(est.valve_count, 2);
  // One pass, 2 port valves: 2 * 2 = 4 switch events.
  EXPECT_EQ(est.switching_count, 4);
}

TEST(ControlEstimate, BendIsNotAJunction) {
  RoutingResult routing;
  routing.paths = {straight_path(0, 1, {{0, 0}, {1, 0}, {1, 1}})};
  const ControlEstimate est = estimate_control_layer(routing);
  EXPECT_EQ(est.junction_cells, 0);  // corner cell has 2 directions
}

TEST(ControlEstimate, TJunctionDetected) {
  // Two paths sharing cell (1,0) from three directions.
  RoutingResult routing;
  routing.paths = {
      straight_path(0, 1, {{0, 0}, {1, 0}, {2, 0}}),
      straight_path(2, 1, {{1, 1}, {1, 0}, {2, 0}}),
  };
  const ControlEstimate est = estimate_control_layer(routing);
  EXPECT_EQ(est.junction_cells, 1);  // (1,0): left, right, up
  // 3 junction valves + port stubs.
  EXPECT_GE(est.valve_count, 3 + 3);
}

TEST(ControlEstimate, WashFlushDoublesPathSwitching) {
  RoutingResult clean, washed;
  clean.paths = {straight_path(0, 1, {{0, 0}, {1, 0}})};
  washed.paths = {straight_path(0, 1, {{0, 0}, {1, 0}}, /*wash=*/2.0)};
  const auto a = estimate_control_layer(clean);
  const auto b = estimate_control_layer(washed);
  EXPECT_EQ(b.switching_count, 2 * a.switching_count);
}

TEST(ControlEstimate, SharedPortStubCountedOnce) {
  RoutingResult routing;
  routing.paths = {
      straight_path(0, 1, {{0, 0}, {1, 0}}),
      straight_path(0, 1, {{0, 0}, {1, 0}}),  // identical route
  };
  const ControlEstimate est = estimate_control_layer(routing);
  EXPECT_EQ(est.port_valves, 2);  // same stubs, deduplicated
  // But both passes switch: 2 tasks * 2 valves * 2 events.
  EXPECT_EQ(est.switching_count, 8);
}

TEST(ControlMultiplexing, EmptyRouting) {
  const MultiplexingEstimate est = estimate_control_multiplexing({});
  EXPECT_EQ(est.valve_sites, 0);
  EXPECT_EQ(est.control_lines, 0);
}

TEST(ControlMultiplexing, IdenticalActivationSetsShareOneLine) {
  // Two stubs of the same single task have identical activation sets
  // ({0}), so both valve sites fit on one control line.
  RoutingResult routing;
  routing.paths = {straight_path(0, 1, {{0, 0}, {1, 0}})};
  const MultiplexingEstimate est = estimate_control_multiplexing(routing);
  EXPECT_EQ(est.valve_sites, 2);
  EXPECT_EQ(est.control_lines, 1);
  EXPECT_DOUBLE_EQ(est.sharing_ratio, 2.0);
}

TEST(ControlMultiplexing, DistinctActivationSetsNeedDistinctLines) {
  RoutingResult routing;
  RoutedPath a = straight_path(0, 1, {{0, 0}, {1, 0}});
  a.transport_id = 0;
  RoutedPath b = straight_path(2, 3, {{0, 5}, {1, 5}});
  b.transport_id = 1;
  routing.paths = {a, b};
  const MultiplexingEstimate est = estimate_control_multiplexing(routing);
  EXPECT_EQ(est.valve_sites, 4);
  EXPECT_EQ(est.control_lines, 2);  // {0} and {1}
}

TEST(ControlMultiplexing, SharingNeverExceedsSiteCount) {
  const auto bench = make_cpa();
  const Allocation alloc(bench.allocation);
  const auto result = synthesize_dcsa(bench.graph, alloc, bench.wash);
  const MultiplexingEstimate est =
      estimate_control_multiplexing(result.routing);
  EXPECT_GT(est.valve_sites, 0);
  EXPECT_GT(est.control_lines, 0);
  EXPECT_LE(est.control_lines, est.valve_sites);
  EXPECT_GE(est.sharing_ratio, 1.0);
}

TEST(ControlEstimate, RealFlowsProducePlausibleNumbers) {
  const auto bench = make_cpa();
  const Allocation alloc(bench.allocation);
  const auto ours = synthesize_dcsa(bench.graph, alloc, bench.wash);
  const auto est = estimate_control_layer(ours.routing);
  EXPECT_GT(est.valve_count, 0);
  EXPECT_GT(est.switching_count, 0);
  EXPECT_GT(est.switches_per_valve, 0.0);
  EXPECT_LE(est.junction_cells * 3, est.valve_count);
}

}  // namespace
}  // namespace fbmb
