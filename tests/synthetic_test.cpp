#include "bench_suite/synthetic.hpp"

#include <gtest/gtest.h>

namespace fbmb {
namespace {

TEST(SyntheticGenerator, ExactOperationCount) {
  for (int ops : {1, 2, 7, 20, 100}) {
    SyntheticSpec spec;
    spec.operations = ops;
    const auto g = generate_synthetic_graph(spec);
    EXPECT_EQ(g.operation_count(), static_cast<std::size_t>(ops));
  }
}

TEST(SyntheticGenerator, AlwaysAcyclicAndValid) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SyntheticSpec spec;
    spec.operations = 35;
    spec.seed = seed;
    const auto g = generate_synthetic_graph(spec);
    EXPECT_TRUE(g.is_acyclic()) << "seed " << seed;
    EXPECT_FALSE(g.validate().has_value()) << "seed " << seed;
  }
}

TEST(SyntheticGenerator, DeterministicPerSeed) {
  SyntheticSpec spec;
  spec.operations = 30;
  spec.seed = 777;
  const auto a = generate_synthetic_graph(spec);
  const auto b = generate_synthetic_graph(spec);
  EXPECT_EQ(a.to_dot(), b.to_dot());
}

TEST(SyntheticGenerator, DifferentSeedsDiffer) {
  SyntheticSpec a_spec, b_spec;
  a_spec.operations = b_spec.operations = 30;
  a_spec.seed = 1;
  b_spec.seed = 2;
  EXPECT_NE(generate_synthetic_graph(a_spec).to_dot(),
            generate_synthetic_graph(b_spec).to_dot());
}

TEST(SyntheticGenerator, NonSourceOperationsHaveParents) {
  SyntheticSpec spec;
  spec.operations = 50;
  spec.seed = 4;
  const auto g = generate_synthetic_graph(spec);
  // Sources live only in the first layer, which is generated first: the
  // parentless operations are a prefix of the ids, and every later
  // operation has at least one parent from an earlier layer.
  const int count = static_cast<int>(g.operation_count());
  int sources = 0;
  while (sources < count && g.parents(OperationId{sources}).empty()) {
    ++sources;
  }
  EXPECT_GE(sources, spec.min_layer_width);
  EXPECT_LE(sources, spec.max_layer_width);
  for (const auto& op : g.operations()) {
    if (op.id.value < sources) continue;
    EXPECT_FALSE(g.parents(op.id).empty()) << op.name;
    for (OperationId parent : g.parents(op.id)) {
      EXPECT_LT(parent.value, op.id.value) << op.name;
    }
  }
}

TEST(SyntheticGenerator, DetectorsHaveAtMostOneParent) {
  SyntheticSpec spec;
  spec.operations = 60;
  spec.seed = 9;
  spec.allocation = {3, 1, 1, 4};
  const auto g = generate_synthetic_graph(spec);
  for (const auto& op : g.operations()) {
    if (op.type == ComponentType::kDetector) {
      EXPECT_LE(g.parents(op.id).size(), 1u) << op.name;
    }
  }
}

TEST(SyntheticGenerator, MixersCanHaveTwoParents) {
  SyntheticSpec spec;
  spec.operations = 80;
  spec.seed = 12;
  bool two_parent_seen = false;
  const auto g = generate_synthetic_graph(spec);
  for (const auto& op : g.operations()) {
    if (g.parents(op.id).size() == 2u) two_parent_seen = true;
    EXPECT_LE(g.parents(op.id).size(), 2u);
  }
  EXPECT_TRUE(two_parent_seen);
}

TEST(SyntheticGenerator, TypesDrawnFromAllocation) {
  SyntheticSpec spec;
  spec.operations = 40;
  spec.seed = 3;
  spec.allocation = {0, 5, 0, 0};  // heaters only...
  // ...but detectors are banned from layer 0 fallback requires mixers;
  // with no mixers the fallback cannot trigger, so all ops are heaters.
  const auto g = generate_synthetic_graph(spec);
  for (const auto& op : g.operations()) {
    EXPECT_EQ(op.type, ComponentType::kHeater);
  }
}

TEST(SyntheticGenerator, DurationsWithinSpecRange) {
  SyntheticSpec spec;
  spec.operations = 50;
  spec.seed = 21;
  spec.min_duration = 2;
  spec.max_duration = 4;
  const auto g = generate_synthetic_graph(spec);
  for (const auto& op : g.operations()) {
    EXPECT_GE(op.duration, 2.0);
    EXPECT_LE(op.duration, 4.0);
  }
}

TEST(SyntheticGenerator, DiffusionCoefficientsFromReferenceClasses) {
  SyntheticSpec spec;
  spec.operations = 60;
  spec.seed = 30;
  const auto g = generate_synthetic_graph(spec);
  for (const auto& op : g.operations()) {
    const double d = op.output.diffusion_coefficient;
    EXPECT_TRUE(d == diffusion::kSmallMolecule || d == diffusion::kProtein ||
                d == diffusion::kLargeComplex || d == diffusion::kCell)
        << op.name << " has unexpected D=" << d;
  }
}

TEST(SyntheticGenerator, LayerWidthBoundsRespected) {
  SyntheticSpec spec;
  spec.operations = 60;
  spec.seed = 15;
  spec.min_layer_width = 4;
  spec.max_layer_width = 4;  // fixed width
  const auto g = generate_synthetic_graph(spec);
  // With a fixed width of 4, operation i sits in layer i / 4: only layer 0
  // is parentless, and every parent comes from an earlier layer.
  for (const auto& op : g.operations()) {
    const int layer = op.id.value / 4;
    EXPECT_EQ(g.parents(op.id).empty(), layer == 0) << op.name;
    for (OperationId parent : g.parents(op.id)) {
      EXPECT_LT(parent.value / 4, layer) << op.name;
    }
  }
}

}  // namespace
}  // namespace fbmb
