// Incremental PlacerCore placement vs the full-recompute reference.
//
// The rewrite of place_components onto PlacerCore (in-place moves, delta
// energies, occupancy-grid legality) must be a pure optimization: for
// every paper benchmark, at fixed seeds, every restart candidate must be
// bit-identical to place_component_candidates_reference — same origins,
// same rotations, and the same Eq. 3 energy double for double. Stats are
// telemetry and excluded by design (the reference keeps none).
//
// The same holds for BA's construction-by-correction placer: the
// incremental place_components_baseline (separable cost tables,
// cost-first scan, occupancy-grid legality) must return exactly the
// origins and rotations of place_components_baseline_reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "oracle/reference_placer.hpp"
#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"
#include "schedule/list_scheduler.hpp"

namespace fbmb {
namespace {

void run_benchmark(const Benchmark& bench) {
  const Allocation alloc(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  const Schedule schedule =
      schedule_bioassay(bench.graph, alloc, bench.wash, sched);
  const ChipSpec chip = derive_grid(ChipSpec{}, allocation_area(alloc, 1));

  PlacerOptions placer;
  placer.restarts = 2;  // cover the multi-restart min-element path too
  const std::vector<Net> nets =
      build_nets(schedule, bench.wash, placer.beta, placer.gamma);

  PlaceStats stats;
  const std::vector<Placement> core = place_component_candidates(
      alloc, schedule, bench.wash, chip, placer, &stats);
  const std::vector<Placement> ref = place_component_candidates_reference(
      alloc, schedule, bench.wash, chip, placer);

  ASSERT_EQ(core.size(), ref.size());
  for (std::size_t r = 0; r < core.size(); ++r) {
    SCOPED_TRACE(bench.name + "/restart " + std::to_string(r));
    ASSERT_EQ(core[r].size(), ref[r].size());
    for (const auto& comp : alloc.components()) {
      SCOPED_TRACE("component " + comp.name);
      EXPECT_EQ(core[r].at(comp.id).origin, ref[r].at(comp.id).origin);
      EXPECT_EQ(core[r].at(comp.id).rotated, ref[r].at(comp.id).rotated);
    }
    // Bitwise: the core's incremental energy bookkeeping must reproduce
    // the full recompute exactly, or accept decisions would diverge.
    EXPECT_EQ(
        placement_energy(core[r], alloc, nets, kCompactionWeight),
        placement_energy(ref[r], alloc, nets, kCompactionWeight));
    EXPECT_TRUE(core[r].is_legal(alloc, chip));
  }

  // The winning placement goes through the same min-element selection.
  const Placement best =
      place_components(alloc, schedule, bench.wash, chip, placer);
  const Placement best_ref =
      place_components_reference(alloc, schedule, bench.wash, chip, placer);
  for (const auto& comp : alloc.components()) {
    EXPECT_EQ(best.at(comp.id).origin, best_ref.at(comp.id).origin);
    EXPECT_EQ(best.at(comp.id).rotated, best_ref.at(comp.id).rotated);
  }

  // Counters: the SA schedule proposes 150 moves per temperature level per
  // restart, every restart binds twice (initial + pre-polish rebind), and
  // legality runs through the occupancy grid.
  EXPECT_GT(stats.proposals, 0u);
  EXPECT_GT(stats.accepts, 0u);
  EXPECT_GT(stats.delta_evals, 0u);
  EXPECT_EQ(stats.full_evals,
            2u * static_cast<std::uint64_t>(placer.restarts));
  EXPECT_GT(stats.occupancy_probes, 0u);
  EXPECT_GE(stats.delta_evals, stats.accepts);  // every commit was evaluated
}

TEST(PlacerEquivalence, Pcr) { run_benchmark(make_pcr()); }
TEST(PlacerEquivalence, Ivd) { run_benchmark(make_ivd()); }
TEST(PlacerEquivalence, Cpa) { run_benchmark(make_cpa()); }
TEST(PlacerEquivalence, Synthetic1) { run_benchmark(make_synthetic(1)); }
TEST(PlacerEquivalence, Synthetic2) { run_benchmark(make_synthetic(2)); }
TEST(PlacerEquivalence, Synthetic3) { run_benchmark(make_synthetic(3)); }
TEST(PlacerEquivalence, Synthetic4) { run_benchmark(make_synthetic(4)); }

struct BaselineInput {
  std::string name;
  SequencingGraph graph;
  AllocationSpec allocation;
  WashModel wash;
  BindingPolicy policy = BindingPolicy::kBaseline;
};

std::vector<BaselineInput> baseline_inputs() {
  std::vector<BaselineInput> out;
  for (const Benchmark& bench : extended_benchmarks()) {
    for (const BindingPolicy policy :
         {BindingPolicy::kDcsa, BindingPolicy::kBaseline}) {
      out.push_back(
          {bench.name, bench.graph, bench.allocation, bench.wash, policy});
    }
  }
  // The end-to-end benchmark's large_assays inputs: graph seeds 1-6,
  // 70 operations each, on Synthetic4's allocation (7,4,4,3).
  for (std::uint64_t g = 1; g <= 6; ++g) {
    SyntheticSpec spec;
    spec.operations = 70;
    spec.seed = g;
    spec.allocation = {7, 4, 4, 3};
    out.push_back({"Synth70-g" + std::to_string(g),
                   generate_synthetic_graph(spec), spec.allocation,
                   WashModel{}, BindingPolicy::kDcsa});
  }
  // PCR only mixes: the spare heater, filter and detector carry no
  // transport, so their visits cost the spread to every other component.
  const Benchmark pcr = make_pcr();
  out.push_back({"PCR on (4,1,1,1)", pcr.graph, AllocationSpec{4, 1, 1, 1},
                 pcr.wash, BindingPolicy::kBaseline});
  return out;
}

TEST(PlacerEquivalence, BaselinePlacerMatchesReference) {
  int inputs_with_idle_component = 0;
  for (const BaselineInput& in : baseline_inputs()) {
    const Allocation alloc(in.allocation);
    SchedulerOptions sched;
    sched.policy = in.policy;
    sched.refine_storage = in.policy == BindingPolicy::kDcsa;
    const Schedule schedule =
        schedule_bioassay(in.graph, alloc, in.wash, sched);
    std::vector<bool> moves_fluid(alloc.size(), false);
    for (const auto& t : schedule.transports) {
      if (t.from == t.to) continue;
      moves_fluid[static_cast<std::size_t>(t.from.value)] = true;
      moves_fluid[static_cast<std::size_t>(t.to.value)] = true;
    }
    if (std::find(moves_fluid.begin(), moves_fluid.end(), false) !=
        moves_fluid.end()) {
      ++inputs_with_idle_component;
    }
    for (const int spacing : {0, 1, 2}) {
      ChipSpec spec;
      spec.component_spacing = spacing;
      const ChipSpec chip =
          derive_grid(spec, allocation_area(alloc, spacing));
      for (const int passes : {0, 1, 3}) {
        SCOPED_TRACE(in.name + "/" +
                     (in.policy == BindingPolicy::kDcsa ? "DCSA" : "BA") +
                     " spacing " + std::to_string(spacing) + " passes " +
                     std::to_string(passes));
        ConstructivePlacerOptions options;
        options.correction_passes = passes;
        const Placement core =
            place_components_baseline(alloc, schedule, chip, options);
        const Placement ref =
            place_components_baseline_reference(alloc, schedule, chip,
                                                options);
        ASSERT_EQ(core.size(), ref.size());
        for (const auto& comp : alloc.components()) {
          SCOPED_TRACE("component " + comp.name);
          EXPECT_EQ(core.at(comp.id).origin, ref.at(comp.id).origin);
          EXPECT_EQ(core.at(comp.id).rotated, ref.at(comp.id).rotated);
        }
        EXPECT_TRUE(core.is_legal(alloc, chip));
      }
    }
  }
  // At least the oversized PCR input visits a component without
  // neighbours, the cost branch that sums over every other component.
  EXPECT_GT(inputs_with_idle_component, 0);
}

}  // namespace
}  // namespace fbmb
