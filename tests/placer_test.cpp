#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "schedule/list_scheduler.hpp"

namespace fbmb {
namespace {

struct Prepared {
  Benchmark bench;
  Allocation alloc;
  Schedule schedule;
  ChipSpec chip;
};

Prepared prepare(Benchmark bench, BindingPolicy policy = BindingPolicy::kDcsa) {
  Allocation alloc(bench.allocation);
  SchedulerOptions opts;
  opts.policy = policy;
  Schedule schedule = schedule_bioassay(bench.graph, alloc, bench.wash, opts);
  ChipSpec chip = derive_grid(ChipSpec{}, allocation_area(alloc, 1));
  return {std::move(bench), std::move(alloc), std::move(schedule), chip};
}

TEST(AllocationArea, IncludesSpacing) {
  const Allocation alloc(AllocationSpec{1, 0, 0, 0});  // mixer 4x3
  EXPECT_EQ(allocation_area(alloc, 0), 12);
  EXPECT_EQ(allocation_area(alloc, 1), 20);  // (4+1)*(3+1)
}

TEST(RandomPlacement, IsLegalAndDeterministic) {
  const auto p = prepare(make_cpa());
  Rng rng1(5), rng2(5);
  const Placement a = random_placement(p.alloc, p.chip, rng1);
  const Placement b = random_placement(p.alloc, p.chip, rng2);
  EXPECT_TRUE(a.is_legal(p.alloc, p.chip));
  for (const auto& comp : p.alloc.components()) {
    EXPECT_EQ(a.at(comp.id).origin, b.at(comp.id).origin);
    EXPECT_EQ(a.at(comp.id).rotated, b.at(comp.id).rotated);
  }
}

TEST(RandomPlacement, HandlesReorderedAllocation) {
  // Regression: the clash check used to compare a candidate spot against
  // ids 0..current-1, assuming components() iterates in ascending-id
  // order. With a reordered component list that compared against not-yet-
  // placed slots (default origins) and ignored placed higher ids, letting
  // overlapping spots through to the is_legal guard and degrading the
  // sampler to its packed fallback. Placement must track placed ids
  // explicitly.
  const Allocation ascending(AllocationSpec{4, 0, 0, 0});
  std::vector<Component> reversed(ascending.components().rbegin(),
                                  ascending.components().rend());
  const Allocation reordered(std::move(reversed));
  EXPECT_EQ(reordered.size(), 4u);
  EXPECT_EQ(reordered.spec().mixers, 4);
  // component(id) resolves by id, not by list position.
  for (const auto& comp : ascending.components()) {
    EXPECT_EQ(reordered.component(comp.id).name, comp.name);
  }

  ChipSpec chip;
  chip.grid_width = 14;
  chip.grid_height = 14;  // tight: overlaps are likely without the fix
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Placement p = random_placement(reordered, chip, rng);
    EXPECT_TRUE(p.is_legal(reordered, chip)) << "seed " << seed;
  }
  // The sampler (not the packed fallback) should succeed for at least one
  // seed: distinct seeds must not all collapse to the same layout.
  bool any_difference = false;
  Rng r1(1), r2(2);
  const Placement a = random_placement(reordered, chip, r1);
  const Placement b = random_placement(reordered, chip, r2);
  for (const auto& comp : reordered.components()) {
    if (a.at(comp.id).origin != b.at(comp.id).origin ||
        a.at(comp.id).rotated != b.at(comp.id).rotated) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RandomPlacement, FallsBackToPackedOnTightGrid) {
  // 4 mixers (4x3) on a 21x5 grid: the only legal layouts are near-perfect
  // single-row packings, so the 200-try rejection sampler regularly runs
  // out of attempts and must fall back to the deterministic row-major
  // shelf packing at x = 1, 6, 11, 16. The fallback must survive the
  // occupancy-index rewrite of the sampler.
  const Allocation alloc(AllocationSpec{4, 0, 0, 0});
  ChipSpec chip;
  chip.grid_width = 21;
  chip.grid_height = 5;
  const Point packed[] = {{1, 1}, {6, 1}, {11, 1}, {16, 1}};
  int fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    const Placement p = random_placement(alloc, chip, rng);
    EXPECT_TRUE(p.is_legal(alloc, chip)) << "seed " << seed;
    bool is_packed = true;
    for (const auto& comp : alloc.components()) {
      if (p.at(comp.id).origin != packed[comp.id.value] ||
          p.at(comp.id).rotated) {
        is_packed = false;
      }
    }
    fallbacks += is_packed ? 1 : 0;
  }
  EXPECT_GT(fallbacks, 0);
}

TEST(Allocation, ExplicitComponentsRejectNonDenseIds) {
  const Allocation base(AllocationSpec{2, 0, 0, 0});
  std::vector<Component> dup = base.components();
  dup[1].id = dup[0].id;
  EXPECT_THROW(Allocation{std::move(dup)}, std::invalid_argument);
  std::vector<Component> sparse = base.components();
  sparse[1].id = ComponentId{5};
  EXPECT_THROW(Allocation{std::move(sparse)}, std::invalid_argument);
}

TEST(RandomPlacement, ThrowsWhenAllocationCannotFit) {
  const Allocation alloc(AllocationSpec{8, 8, 8, 8});
  ChipSpec tiny;
  tiny.grid_width = 8;
  tiny.grid_height = 8;
  Rng rng(1);
  EXPECT_THROW(random_placement(alloc, tiny, rng), std::runtime_error);
}

TEST(PlacementEnergy, ZeroWithoutNets) {
  const auto p = prepare(make_pcr());
  Rng rng(1);
  const Placement placement = random_placement(p.alloc, p.chip, rng);
  EXPECT_DOUBLE_EQ(placement_energy(placement, p.alloc, {}), 0.0);
}

TEST(PlacementEnergy, ScalesWithDistance) {
  const Allocation alloc(AllocationSpec{2, 0, 0, 0});
  ChipSpec chip;
  chip.grid_width = 30;
  chip.grid_height = 30;
  Placement near_p(alloc.size());
  near_p.at(ComponentId{0}) = {{0, 0}, false};
  near_p.at(ComponentId{1}) = {{6, 0}, false};
  Placement far_p = near_p;
  far_p.at(ComponentId{1}) = {{20, 0}, false};
  std::vector<Net> nets = {{ComponentId{0}, ComponentId{1}, 2.0, 1}};
  EXPECT_LT(placement_energy(near_p, alloc, nets),
            placement_energy(far_p, alloc, nets));
}

TEST(PlacementEnergy, CompactionTermAddsPairwiseSpread) {
  const Allocation alloc(AllocationSpec{2, 0, 0, 0});
  Placement p(alloc.size());
  p.at(ComponentId{0}) = {{0, 0}, false};
  p.at(ComponentId{1}) = {{10, 0}, false};
  const double no_compact = placement_energy(p, alloc, {}, 0.0);
  const double compact = placement_energy(p, alloc, {}, 0.5);
  EXPECT_DOUBLE_EQ(no_compact, 0.0);
  EXPECT_DOUBLE_EQ(compact, 0.5 * 10.0);
}

TEST(PlacementEnergy, CompactionCombinesWithNetTerm) {
  // Exact arithmetic: mixers are 4x3, centers are integer cell coordinates,
  // so every term is a small integer times a weight. The net term and the
  // compaction term must add independently.
  const Allocation alloc(AllocationSpec{3, 0, 0, 0});
  Placement p(alloc.size());
  p.at(ComponentId{0}) = {{0, 0}, false};   // center (2, 1)
  p.at(ComponentId{1}) = {{10, 0}, false};  // center (12, 1)
  p.at(ComponentId{2}) = {{0, 7}, false};   // center (2, 8)
  const std::vector<Net> nets = {{ComponentId{0}, ComponentId{1}, 2.0, 1}};
  EXPECT_EQ(p.total_pairwise_distance(alloc), 10 + 7 + 17);
  EXPECT_DOUBLE_EQ(placement_energy(p, alloc, nets, 0.0), 10.0 * 2.0);
  EXPECT_DOUBLE_EQ(placement_energy(p, alloc, nets, 0.25),
                   10.0 * 2.0 + 0.25 * 34.0);
}

TEST(SaPlacer, ProducesLegalPlacement) {
  const auto p = prepare(make_cpa());
  PlacerOptions opts;
  opts.restarts = 1;
  const Placement placement =
      place_components(p.alloc, p.schedule, p.bench.wash, p.chip, opts);
  EXPECT_TRUE(placement.is_legal(p.alloc, p.chip))
      << placement.violations(p.alloc, p.chip).front();
}

TEST(SaPlacer, DeterministicForSeed) {
  const auto p = prepare(make_ivd());
  PlacerOptions opts;
  opts.seed = 123;
  const Placement a =
      place_components(p.alloc, p.schedule, p.bench.wash, p.chip, opts);
  const Placement b =
      place_components(p.alloc, p.schedule, p.bench.wash, p.chip, opts);
  for (const auto& comp : p.alloc.components()) {
    EXPECT_EQ(a.at(comp.id).origin, b.at(comp.id).origin);
  }
}

TEST(SaPlacer, BeatsRandomPlacementOnEnergy) {
  const auto p = prepare(make_cpa());
  PlacerOptions opts;
  const auto nets = build_nets(p.schedule, p.bench.wash, opts.beta,
                               opts.gamma);
  Rng rng(opts.seed);
  const Placement random = random_placement(p.alloc, p.chip, rng);
  const Placement optimized =
      place_components(p.alloc, p.schedule, p.bench.wash, p.chip, opts);
  EXPECT_LE(placement_energy(optimized, p.alloc, nets, kCompactionWeight),
            placement_energy(random, p.alloc, nets, kCompactionWeight));
}

TEST(SaPlacer, RequiresFixedGrid) {
  const auto p = prepare(make_pcr());
  ChipSpec unfixed;  // no grid set
  EXPECT_THROW(
      place_components(p.alloc, p.schedule, p.bench.wash, unfixed, {}),
      std::invalid_argument);
}

TEST(SaPlacer, CandidatesMatchRestartCount) {
  const auto p = prepare(make_ivd());
  PlacerOptions opts;
  opts.restarts = 4;
  const auto candidates = place_component_candidates(
      p.alloc, p.schedule, p.bench.wash, p.chip, opts);
  EXPECT_EQ(candidates.size(), 4u);
  for (const auto& c : candidates) {
    EXPECT_TRUE(c.is_legal(p.alloc, p.chip));
  }
}

TEST(ConstructivePlacer, ProducesLegalPlacement) {
  for (const auto& bench : paper_benchmarks()) {
    const auto p = prepare(bench, BindingPolicy::kBaseline);
    const Placement placement =
        place_components_baseline(p.alloc, p.schedule, p.chip);
    EXPECT_TRUE(placement.is_legal(p.alloc, p.chip)) << p.bench.name;
  }
}

TEST(ConstructivePlacer, IsDeterministic) {
  const auto p = prepare(make_cpa(), BindingPolicy::kBaseline);
  const Placement a = place_components_baseline(p.alloc, p.schedule, p.chip);
  const Placement b = place_components_baseline(p.alloc, p.schedule, p.chip);
  for (const auto& comp : p.alloc.components()) {
    EXPECT_EQ(a.at(comp.id).origin, b.at(comp.id).origin);
    EXPECT_EQ(a.at(comp.id).rotated, b.at(comp.id).rotated);
  }
}

TEST(ConstructivePlacer, CorrectionImprovesSpread) {
  const auto p = prepare(make_cpa(), BindingPolicy::kBaseline);
  ConstructivePlacerOptions no_passes;
  no_passes.correction_passes = 0;
  ConstructivePlacerOptions with_passes;
  const Placement initial =
      place_components_baseline(p.alloc, p.schedule, p.chip, no_passes);
  const Placement corrected =
      place_components_baseline(p.alloc, p.schedule, p.chip, with_passes);
  EXPECT_LE(corrected.total_pairwise_distance(p.alloc),
            initial.total_pairwise_distance(p.alloc));
}

TEST(ConstructivePlacer, RequiresFixedGrid) {
  const auto p = prepare(make_pcr(), BindingPolicy::kBaseline);
  EXPECT_THROW(place_components_baseline(p.alloc, p.schedule, ChipSpec{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fbmb
