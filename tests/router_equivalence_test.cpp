// Flat-array router core vs the map-based reference implementation.
//
// The rewrite in route/router.cpp must be a pure optimization: for every
// paper benchmark and both router configurations (the paper's conflict-
// aware flow and the BA-style baseline), the RoutingResult must be
// bit-identical to route_transports_reference — same cells, same doubles,
// same postponements. Stats are telemetry and excluded by design.

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "place/sa_placer.hpp"
#include "route/reference_router.hpp"
#include "route/router.hpp"
#include "schedule/list_scheduler.hpp"

namespace fbmb {
namespace {

void expect_identical(const RoutingResult& flat, const RoutingResult& ref,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(flat.conflict_postponements, ref.conflict_postponements);
  EXPECT_EQ(flat.total_wash_time, ref.total_wash_time);  // bitwise
  ASSERT_EQ(flat.delays.size(), ref.delays.size());
  for (std::size_t i = 0; i < flat.delays.size(); ++i) {
    EXPECT_EQ(flat.delays[i], ref.delays[i]) << "delay " << i;
  }
  ASSERT_EQ(flat.paths.size(), ref.paths.size());
  for (std::size_t i = 0; i < flat.paths.size(); ++i) {
    const RoutedPath& a = flat.paths[i];
    const RoutedPath& b = ref.paths[i];
    SCOPED_TRACE("path " + std::to_string(i));
    EXPECT_EQ(a.transport_id, b.transport_id);
    EXPECT_EQ(a.from_component, b.from_component);
    EXPECT_EQ(a.to_component, b.to_component);
    EXPECT_EQ(a.cells, b.cells);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.transport_end, b.transport_end);
    EXPECT_EQ(a.cache_until, b.cache_until);
    EXPECT_EQ(a.wash_duration, b.wash_duration);
    EXPECT_EQ(a.delay, b.delay);
  }
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

/// Routes `bench` with both configurations and returns the paper
/// configuration's stats.
RouteStats run_benchmark(const Benchmark& bench) {
  const Allocation alloc(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  const Schedule schedule =
      schedule_bioassay(bench.graph, alloc, bench.wash, sched);
  const ChipSpec chip = derive_grid(ChipSpec{}, allocation_area(alloc, 1));
  PlacerOptions placer;
  placer.restarts = 1;
  const Placement placement =
      place_components(alloc, schedule, bench.wash, chip, placer);

  RouterOptions paper;  // wash-aware weights + conflict-aware (defaults)
  RouterOptions baseline;
  baseline.wash_aware_weights = false;
  baseline.conflict_aware = false;

  RouteStats paper_stats;
  for (const auto& [label, opts] :
       {std::pair<const char*, RouterOptions>{"paper", paper},
        std::pair<const char*, RouterOptions>{"baseline", baseline}}) {
    RoutingGrid flat_grid(chip, alloc, placement);
    RoutingGrid ref_grid(chip, alloc, placement);
    const RoutingResult flat =
        route_transports(flat_grid, schedule, bench.wash, opts);
    const RoutingResult ref =
        route_transports_reference(ref_grid, schedule, bench.wash, opts);
    expect_identical(flat, ref, bench.name + "/" + label);
    EXPECT_EQ(flat.stats.tasks_routed, schedule.transports.size());
    EXPECT_TRUE(ref.stats.tasks_routed == 0);  // reference keeps no stats
    if (opts.conflict_aware) paper_stats = flat.stats;
  }
  return paper_stats;
}

TEST(RouterEquivalence, Pcr) { run_benchmark(make_pcr()); }
TEST(RouterEquivalence, Ivd) { run_benchmark(make_ivd()); }
TEST(RouterEquivalence, Cpa) { run_benchmark(make_cpa()); }
TEST(RouterEquivalence, Synthetic1) { run_benchmark(make_synthetic(1)); }
TEST(RouterEquivalence, Synthetic2) { run_benchmark(make_synthetic(2)); }
TEST(RouterEquivalence, Synthetic3) { run_benchmark(make_synthetic(3)); }
TEST(RouterEquivalence, Synthetic4) { run_benchmark(make_synthetic(4)); }

// The paper benchmarks barely postpone; this 70-operation assay does, so
// certified postponement retries are checked against the reference's
// search-every-step loop.
TEST(RouterEquivalence, Synth70Postpones) {
  EXPECT_GT(run_benchmark(make_synthetic_70()).postponement_steps, 0u);
}

}  // namespace
}  // namespace fbmb
