// Incremental route–retime fixpoint vs the from-scratch reference loop.
//
// route_until_consistent (incremental: persistent grid, dirty-set
// re-routing, verbatim replay of clean transports) must be a pure
// optimization of route_until_consistent_reference (fresh grid + full
// re-route every round): for every paper benchmark and both flow presets
// (the paper's DCSA configuration and the BA baseline), the final
// (Schedule, RoutingResult) pair must be bit-identical — same retimed
// operation/transport times, same cells, same doubles, same postponement
// counts. Stats are telemetry and excluded by design.

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "core/flow_core.hpp"
#include "oracle/reference_flow.hpp"
#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"
#include "schedule/list_scheduler.hpp"

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

/// The paper flow's routing scenario: DCSA binding + storage refinement,
/// one SA restart, wash-aware conflict-aware routing.
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

/// The BA baseline's routing scenario: earliest-ready binding,
/// constructive placement, wash-oblivious conflict-aware routing. This is
/// the preset that actually postpones on most benchmarks, so it exercises
/// the multi-round incremental path.
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

/// 70 operations (graph seed 1) on Synthetic4's allocation (7,4,4,3), the
/// size the end-to-end benchmark's large_assays workload routes.
Benchmark make_synthetic_70() {
  SyntheticSpec spec;
  spec.operations = 70;
  spec.seed = 1;
  spec.allocation = {7, 4, 4, 3};
  Benchmark bench;
  bench.name = "Synth70-g1";
  bench.graph = generate_synthetic_graph(spec);
  bench.allocation = spec.allocation;
  return bench;
}

/// Checks both presets on `bench`; `stats` (optional) receives the
/// incremental fixpoints' summed stats. The paper benchmarks converge
/// within the round cap; a larger input may be capped (`converges` false),
/// and a capped pair must be just as bit-identical.
void run_benchmark(const Benchmark& bench, bool converges = true,
                   RouteStats* stats = nullptr) {
  for (const Scenario& s : {prepare_dcsa(bench), prepare_baseline(bench)}) {
    SCOPED_TRACE(s.label);
    Schedule incremental_schedule = s.schedule;
    StageTimes incremental_stages;
    FlowStats flow;
    const RoutingResult incremental = route_until_consistent(
        incremental_schedule, bench.graph, s.alloc, s.chip, s.placement,
        bench.wash, s.router, incremental_stages, {}, &flow);

    Schedule reference_schedule = s.schedule;
    StageTimes reference_stages;
    const RoutingResult reference = route_until_consistent_reference(
        reference_schedule, bench.graph, s.alloc, s.chip, s.placement,
        bench.wash, s.router, reference_stages, {});

    EXPECT_TRUE(identical_schedules(incremental_schedule,
                                    reference_schedule));
    EXPECT_TRUE(identical_routing(incremental, reference));
    // Bit-identical includes the capped flag: neither preset should hit
    // the 20-round cap on the paper benchmarks.
    EXPECT_EQ(incremental.stats.fixpoints_capped,
              reference.stats.fixpoints_capped);
    if (converges) {
      EXPECT_EQ(incremental.stats.fixpoints_capped, 0u);
    }

    // Reuse accounting must be consistent: every transport of every round
    // is either replayed or re-routed, and round 1 re-routes everything.
    EXPECT_EQ(flow.rounds, flow.round_details.size());
    ASSERT_GE(flow.rounds, 1u);
    EXPECT_EQ(flow.round_details[0].transports_reused, 0u);
    EXPECT_EQ(flow.round_details[0].transports_rerouted,
              s.schedule.transports.size());
    std::uint64_t rerouted = 0;
    std::uint64_t reused = 0;
    for (const FlowRound& r : flow.round_details) {
      EXPECT_EQ(r.transports_rerouted + r.transports_reused,
                s.schedule.transports.size());
      rerouted += r.transports_rerouted;
      reused += r.transports_reused;
    }
    EXPECT_EQ(rerouted, flow.transports_rerouted);
    EXPECT_EQ(reused, flow.transports_reused);
    // A multi-round fixpoint must actually reuse paths — otherwise the
    // incremental core silently degenerated to the from-scratch loop.
    if (flow.rounds > 1) {
      EXPECT_GT(flow.transports_reused, 0u) << "no path reuse across "
                                            << flow.rounds << " rounds";
    }
    if (stats) *stats += incremental.stats;
  }
}

TEST(FlowEquivalence, Pcr) { run_benchmark(make_pcr()); }
TEST(FlowEquivalence, Ivd) { run_benchmark(make_ivd()); }
TEST(FlowEquivalence, Cpa) { run_benchmark(make_cpa()); }
TEST(FlowEquivalence, Synthetic1) { run_benchmark(make_synthetic(1)); }
TEST(FlowEquivalence, Synthetic2) { run_benchmark(make_synthetic(2)); }
TEST(FlowEquivalence, Synthetic3) { run_benchmark(make_synthetic(3)); }
TEST(FlowEquivalence, Synthetic4) { run_benchmark(make_synthetic(4)); }

// The paper benchmarks barely postpone; this 70-operation assay does, so
// certified postponement retries run inside the incremental sweep too.
// Its baseline fixpoint hits the round cap.
TEST(FlowEquivalence, Synth70Postpones) {
  RouteStats stats;
  run_benchmark(make_synthetic_70(), /*converges=*/false, &stats);
  EXPECT_GT(stats.postponement_steps, 0u);
}

/// The multi-round configurations (known from the fixpoint's round
/// counts) must exercise genuine reuse, not just trivially converge in
/// one round everywhere.
TEST(FlowEquivalence, MultiRoundConfigsExerciseReuse) {
  std::uint64_t multi_round_configs = 0;
  for (const auto& bench : paper_benchmarks()) {
    for (const Scenario& s :
         {prepare_dcsa(bench), prepare_baseline(bench)}) {
      Schedule schedule = s.schedule;
      StageTimes stages;
      FlowStats flow;
      route_until_consistent(schedule, bench.graph, s.alloc, s.chip,
                             s.placement, bench.wash, s.router, stages, {},
                             &flow);
      if (flow.rounds > 1) ++multi_round_configs;
    }
  }
  EXPECT_GE(multi_round_configs, 3u)
      << "the benchmark matrix no longer exercises multi-round fixpoints";
}

}  // namespace
}  // namespace fbmb
