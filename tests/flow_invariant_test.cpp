// End-to-end invariant gate for the route–retime fixpoint.
//
// Three consistency guarantees that regressed (or could regress) with the
// incremental fixpoint rewrite:
//  - every (schedule, routing) pair a fixpoint returns — incremental or
//    reference, converged or capped — satisfies the routing and schedule
//    validators, and the full flow's result survives the discrete-event
//    chip simulator with matching ground-truth statistics;
//  - the capped-rounds path returns paths routed against the *final*
//    retimed schedule (the pre-fix code returned pre-retiming paths with a
//    post-retiming schedule, which validate_routing rejects);
//  - grid construction is timed as its own stage (stages.grid_build), not
//    folded into stages.route, and the stage breakdown accounts for the
//    flow's cpu_seconds.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "core/flow_core.hpp"
#include "core/synthesis.hpp"
#include "oracle/reference_flow.hpp"
#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"
#include "route/validator.hpp"
#include "runtime/result_io.hpp"
#include "runtime/telemetry.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/validator.hpp"
#include "sim/chip_simulator.hpp"

namespace fbmb {
namespace {

struct Scenario {
  std::string label;
  Allocation alloc;
  Schedule schedule;
  ChipSpec chip;
  Placement placement;
  RouterOptions router;
};

Scenario prepare_dcsa(const Benchmark& bench) {
  Scenario s;
  s.label = bench.name + "/dcsa";
  s.alloc = Allocation(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  PlacerOptions placer;
  placer.restarts = 1;
  s.placement =
      place_components(s.alloc, s.schedule, bench.wash, s.chip, placer);
  return s;
}

Scenario prepare_baseline(const Benchmark& bench) {
  Scenario s;
  s.label = bench.name + "/baseline";
  s.alloc = Allocation(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kBaseline;
  sched.refine_storage = false;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  s.placement = place_components_baseline(s.alloc, s.schedule, s.chip,
                                          ConstructivePlacerOptions{});
  s.router.wash_aware_weights = false;
  return s;
}

void expect_valid(const Scenario& s, const Benchmark& bench,
                  const Schedule& schedule, const RoutingResult& routing) {
  const RoutingGrid fresh(s.chip, s.alloc, s.placement);
  for (const std::string& v :
       validate_routing(routing, schedule, fresh, bench.wash)) {
    ADD_FAILURE() << "routing invariant: " << v;
  }
  for (const std::string& v :
       validate_schedule(schedule, bench.graph, s.alloc, bench.wash)) {
    ADD_FAILURE() << "schedule invariant: " << v;
  }
}

/// Both fixpoints' outputs must pass the routing + schedule validators on
/// every benchmark and both presets.
TEST(FlowInvariants, FixpointOutputsValidate) {
  for (const auto& bench : paper_benchmarks()) {
    for (const Scenario& s :
         {prepare_dcsa(bench), prepare_baseline(bench)}) {
      SCOPED_TRACE(s.label);
      Schedule schedule = s.schedule;
      StageTimes stages;
      const RoutingResult routing = route_until_consistent(
          schedule, bench.graph, s.alloc, s.chip, s.placement, bench.wash,
          s.router, stages, {});
      expect_valid(s, bench, schedule, routing);

      Schedule ref_schedule = s.schedule;
      StageTimes ref_stages;
      const RoutingResult ref = route_until_consistent_reference(
          ref_schedule, bench.graph, s.alloc, s.chip, s.placement,
          bench.wash, s.router, ref_stages, {});
      expect_valid(s, bench, ref_schedule, ref);
    }
  }
}

void expect_simulates(const Benchmark& bench, const SynthesisResult& result) {
  const SimResult sim =
      simulate_chip(bench.graph, Allocation(bench.allocation), bench.wash,
                    result);
  for (const std::string& v : sim.violations) {
    ADD_FAILURE() << "simulation violation: " << v;
  }
  ASSERT_TRUE(sim.ok);
  // Ground-truth statistics from the event simulation must match the
  // metrics the flow reported — two independent code paths agreeing.
  EXPECT_NEAR(sim.stats.completion_time, result.completion_time, 1e-6);
  EXPECT_NEAR(sim.stats.channel_cache_time, result.total_cache_time, 1e-6);
  EXPECT_NEAR(sim.stats.component_wash_time,
              result.schedule.total_component_wash_time(), 1e-6);
  EXPECT_EQ(sim.stats.plugs_moved,
            static_cast<int>(result.schedule.transports.size()));
  EXPECT_EQ(sim.stats.washes_performed,
            static_cast<int>(result.schedule.component_washes.size()));
}

/// The full flows (which now run the incremental fixpoint) must produce
/// results the chip simulator executes cleanly, on every benchmark.
TEST(FlowInvariants, SynthesizedResultsSimulate) {
  for (const auto& bench : paper_benchmarks()) {
    SCOPED_TRACE(bench.name);
    SynthesisOptions options;
    options.placer.restarts = 1;
    expect_simulates(bench,
                     synthesize_dcsa(bench.graph, Allocation(bench.allocation),
                                     bench.wash, options));
    expect_simulates(bench, synthesize_baseline(bench.graph,
                                                Allocation(bench.allocation),
                                                bench.wash, options));
  }
}

/// Regression for the capped-rounds bug: with the round cap forced down to
/// one, the fixpoint hits the cap on a postponing configuration and must
/// still return paths consistent with the retimed schedule it returns.
/// The pre-fix code returned the pre-retiming paths (whose starts precede
/// the retimed departures), which validate_routing rejects.
TEST(FlowInvariants, CappedFixpointStaysConsistent) {
  const Benchmark bench = make_cpa();
  Scenario s = prepare_baseline(bench);
  s.router.max_fixpoint_rounds = 1;

  Schedule schedule = s.schedule;
  StageTimes stages;
  FlowStats flow;
  const RoutingResult routing = route_until_consistent(
      schedule, bench.graph, s.alloc, s.chip, s.placement, bench.wash,
      s.router, stages, {}, &flow);
  EXPECT_EQ(routing.stats.fixpoints_capped, 1u);
  // Cap at one round + one reconciliation round = two rounds recorded.
  EXPECT_EQ(flow.rounds, 2u);
  expect_valid(s, bench, schedule, routing);

  Schedule ref_schedule = s.schedule;
  StageTimes ref_stages;
  const RoutingResult ref = route_until_consistent_reference(
      ref_schedule, bench.graph, s.alloc, s.chip, s.placement, bench.wash,
      s.router, ref_stages, {});
  EXPECT_EQ(ref.stats.fixpoints_capped, 1u);
  expect_valid(s, bench, ref_schedule, ref);

  // The capped paths of the two fixpoints stay bit-identical too.
  EXPECT_TRUE(identical_schedules(schedule, ref_schedule));
  EXPECT_TRUE(identical_routing(routing, ref));
}

/// Grid construction must be timed as its own stage and the per-stage
/// breakdown must account for cpu_seconds: the stages are non-overlapping
/// sub-spans of the flow, so their sum is bounded by the total (plus timer
/// noise) and the unaccounted remainder stays small.
TEST(FlowInvariants, StageTimesAccountForCpuSeconds) {
  const Benchmark bench = make_cpa();
  SynthesisOptions options;
  options.placer.restarts = 1;
  const SynthesisResult result = synthesize_dcsa(
      bench.graph, Allocation(bench.allocation), bench.wash, options);
  const StageTimes& st = result.stage_seconds;
  EXPECT_GT(st.grid_build, 0.0);
  EXPECT_GT(st.route, 0.0);
  const double total = st.total();
  EXPECT_LE(total, result.cpu_seconds * 1.05 + 1e-3);
  const double unaccounted = result.cpu_seconds - total;
  EXPECT_LE(unaccounted, std::max(0.1, 0.5 * result.cpu_seconds))
      << "stage breakdown misses too much of cpu_seconds: total=" << total
      << " cpu=" << result.cpu_seconds;
}

/// The result-cache spill must round-trip the new counters, and spills
/// written before they existed must still load (with the counters zero).
TEST(FlowInvariants, SpillRoundTripsFlowCounters) {
  const Benchmark bench = make_pcr();
  SynthesisOptions options;
  options.placer.restarts = 1;
  options.router.max_fixpoint_rounds = 1;  // exercise fixpoints_capped too
  const SynthesisResult result = synthesize_baseline(
      bench.graph, Allocation(bench.allocation), bench.wash, options);

  const std::string json = synthesis_result_to_json(result);
  const auto parsed = synthesis_result_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow_stats.rounds, result.flow_stats.rounds);
  EXPECT_EQ(parsed->flow_stats.transports_rerouted,
            result.flow_stats.transports_rerouted);
  EXPECT_EQ(parsed->flow_stats.transports_reused,
            result.flow_stats.transports_reused);
  EXPECT_EQ(parsed->flow_stats.cells_evicted,
            result.flow_stats.cells_evicted);
  EXPECT_EQ(parsed->routing.stats.fixpoints_capped,
            result.routing.stats.fixpoints_capped);
  EXPECT_EQ(parsed->stage_seconds.grid_build, result.stage_seconds.grid_build);

  // Legacy spill: strip the keys this change introduced and re-parse.
  std::string legacy = json;
  const auto fs = legacy.find("\"flow_stats\"");
  ASSERT_NE(fs, std::string::npos);
  const auto fs_end = legacy.find("}", fs);
  ASSERT_NE(fs_end, std::string::npos);
  legacy.erase(fs, fs_end - fs + 3);  // drops `"flow_stats": {...}, `
  const auto cap = legacy.find(", \"fixpoints_capped\"");
  ASSERT_NE(cap, std::string::npos);
  legacy.erase(cap, legacy.find("}", cap) - cap);
  const auto gb = legacy.find(", \"grid_build\"");
  ASSERT_NE(gb, std::string::npos);
  legacy.erase(gb, legacy.find(",", gb + 2) - gb);

  const auto old = synthesis_result_from_json(legacy);
  ASSERT_TRUE(old.has_value()) << "legacy spill without the new keys must load";
  EXPECT_EQ(old->flow_stats.rounds, 0u);
  EXPECT_EQ(old->routing.stats.fixpoints_capped, 0u);
  EXPECT_EQ(old->stage_seconds.grid_build, 0.0);
  EXPECT_TRUE(identical_schedules(old->schedule, result.schedule));
}

/// Telemetry must aggregate and emit the new counters.
TEST(FlowInvariants, TelemetryCarriesFlowCounters) {
  Telemetry telemetry;
  SynthesisResult result;
  result.flow_stats.rounds = 3;
  result.flow_stats.transports_rerouted = 40;
  result.flow_stats.transports_reused = 20;
  result.flow_stats.cells_evicted = 7;
  telemetry.record_result(result, 0.0);
  result.routing.stats.fixpoints_capped = 1;
  result.stage_seconds.grid_build = 0.25;
  telemetry.record_result(result, 0.0);

  const Telemetry::Snapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.flow.rounds, 6u);
  EXPECT_EQ(snap.flow.transports_rerouted, 80u);
  EXPECT_EQ(snap.flow.transports_reused, 40u);
  EXPECT_EQ(snap.flow.cells_evicted, 14u);
  EXPECT_EQ(snap.routing.fixpoints_capped, 1u);
  EXPECT_DOUBLE_EQ(snap.stage_seconds.grid_build, 0.25);

  const std::string json = Telemetry::to_json(snap);
  EXPECT_NE(json.find("\"flow\": {\"rounds\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"fixpoints_capped\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"grid_build\": 0.25"), std::string::npos);

  telemetry.reset();
  EXPECT_EQ(telemetry.snapshot().flow.rounds, 0u);
  EXPECT_EQ(telemetry.snapshot().routing.fixpoints_capped, 0u);
}

}  // namespace
}  // namespace fbmb
