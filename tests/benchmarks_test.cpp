#include "bench_suite/benchmarks.hpp"

#include <gtest/gtest.h>

#include <cctype>

#include "graph/assay_parser.hpp"
#include "graph/graph_algorithms.hpp"

namespace fbmb {
namespace {

TEST(Benchmarks, PcrMatchesTableOne) {
  const auto b = make_pcr();
  EXPECT_EQ(b.name, "PCR");
  EXPECT_EQ(b.graph.operation_count(), 7u);          // Table I column 2
  EXPECT_EQ(b.allocation, (AllocationSpec{3, 0, 0, 0}));
  EXPECT_FALSE(b.graph.validate().has_value());
  // Pure mixing tree: single sink, 4 leaf sources.
  EXPECT_EQ(b.graph.sinks().size(), 1u);
  EXPECT_EQ(b.graph.sources().size(), 4u);
  for (const auto& op : b.graph.operations()) {
    EXPECT_EQ(op.type, ComponentType::kMixer);
  }
}

TEST(Benchmarks, IvdMatchesTableOne) {
  const auto b = make_ivd();
  EXPECT_EQ(b.graph.operation_count(), 12u);
  EXPECT_EQ(b.allocation, (AllocationSpec{3, 0, 0, 2}));
  EXPECT_FALSE(b.graph.validate().has_value());
  const auto hist = operation_type_histogram(b.graph);
  EXPECT_EQ(hist[static_cast<std::size_t>(ComponentType::kMixer)], 6);
  EXPECT_EQ(hist[static_cast<std::size_t>(ComponentType::kDetector)], 6);
}

TEST(Benchmarks, CpaMatchesTableOne) {
  const auto b = make_cpa();
  EXPECT_EQ(b.graph.operation_count(), 55u);
  EXPECT_EQ(b.allocation, (AllocationSpec{8, 0, 0, 2}));
  EXPECT_FALSE(b.graph.validate().has_value());
  const auto hist = operation_type_histogram(b.graph);
  EXPECT_EQ(hist[static_cast<std::size_t>(ComponentType::kMixer)], 47);
  EXPECT_EQ(hist[static_cast<std::size_t>(ComponentType::kDetector)], 8);
  // One dilution root feeding everything.
  EXPECT_EQ(b.graph.sources().size(), 1u);
  EXPECT_EQ(b.graph.sinks().size(), 8u);  // one detection per dilution
}

TEST(Benchmarks, SyntheticSizesMatchTableOne) {
  const int expected_ops[] = {20, 30, 40, 50};
  const AllocationSpec expected_alloc[] = {
      {3, 3, 2, 1}, {5, 2, 2, 2}, {6, 4, 4, 2}, {7, 4, 4, 3}};
  for (int i = 1; i <= 4; ++i) {
    const auto b = make_synthetic(i);
    EXPECT_EQ(b.name, "Synthetic" + std::to_string(i));
    EXPECT_EQ(b.graph.operation_count(),
              static_cast<std::size_t>(expected_ops[i - 1]));
    EXPECT_EQ(b.allocation, expected_alloc[i - 1]);
    EXPECT_FALSE(b.graph.validate().has_value()) << b.name;
  }
}

TEST(Benchmarks, SyntheticsAreReproducible) {
  const auto a = make_synthetic(2);
  const auto b = make_synthetic(2);
  ASSERT_EQ(a.graph.operation_count(), b.graph.operation_count());
  for (std::size_t i = 0; i < a.graph.operation_count(); ++i) {
    const OperationId id{static_cast<int>(i)};
    EXPECT_EQ(a.graph.operation(id).type, b.graph.operation(id).type);
    EXPECT_DOUBLE_EQ(a.graph.operation(id).duration,
                     b.graph.operation(id).duration);
  }
  EXPECT_EQ(a.graph.dependencies().size(), b.graph.dependencies().size());
}

TEST(Benchmarks, SyntheticTypesOnlyFromAllocation) {
  for (int i = 1; i <= 4; ++i) {
    const auto b = make_synthetic(i);
    for (const auto& op : b.graph.operations()) {
      EXPECT_GT(b.allocation.count(op.type), 0)
          << b.name << " op " << op.name;
    }
  }
}

TEST(Benchmarks, PaperExampleStructure) {
  const auto b = make_paper_example();
  EXPECT_EQ(b.graph.operation_count(), 10u);
  EXPECT_EQ(b.allocation, (AllocationSpec{3, 1, 0, 1}));
  EXPECT_FALSE(b.graph.validate().has_value());
  // o1's contaminant washes in 10 s (the Fig. 3 discussion), o2's in 2 s.
  const auto& o1 = b.graph.operation(OperationId{0});
  const auto& o2 = b.graph.operation(OperationId{1});
  EXPECT_DOUBLE_EQ(b.wash.wash_time(o1.output), 10.0);
  EXPECT_DOUBLE_EQ(b.wash.wash_time(o2.output), 2.0);
}

TEST(Benchmarks, PaperBenchmarksReturnsAllSevenInOrder) {
  const auto all = paper_benchmarks();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0].name, "PCR");
  EXPECT_EQ(all[1].name, "IVD");
  EXPECT_EQ(all[2].name, "CPA");
  EXPECT_EQ(all[3].name, "Synthetic1");
  EXPECT_EQ(all[6].name, "Synthetic4");
}

TEST(Benchmarks, FindBenchmarkBuildsEachSuiteMember) {
  std::vector<Benchmark> suite = extended_benchmarks();
  std::vector<std::string> names;
  for (const Benchmark& b : suite) names.push_back(b.name);
  // The lookup table's order is the suite's: Table I's rows, then the
  // extra real-life assays.
  EXPECT_EQ(names, (std::vector<std::string>{
                       "PCR", "IVD", "CPA", "Synthetic1", "Synthetic2",
                       "Synthetic3", "Synthetic4", "ProteinSplit2",
                       "ProteinSplit3", "GlucosePanel"}));
  suite.push_back(make_paper_example());
  for (const Benchmark& want : suite) {
    std::string lower = want.name;
    std::string upper = want.name;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    for (char& c : upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    for (const std::string& spelling : {want.name, lower, upper}) {
      const std::optional<Benchmark> got = find_benchmark(spelling);
      ASSERT_TRUE(got.has_value()) << spelling;
      EXPECT_EQ(got->name, want.name) << spelling;
      EXPECT_EQ(write_assay(got->graph, &got->allocation, &got->wash),
                write_assay(want.graph, &want.allocation, &want.wash))
          << spelling;
    }
  }
  const std::optional<Benchmark> example = find_benchmark("paper_example");
  ASSERT_TRUE(example.has_value());
  EXPECT_EQ(example->name, "PaperExample");
  for (const char* unknown : {"", "Synthetic5", "PCR "}) {
    EXPECT_FALSE(find_benchmark(unknown).has_value()) << unknown;
  }
}

TEST(Benchmarks, AllocationsCoverEveryOperationType) {
  for (const auto& b : paper_benchmarks()) {
    const auto hist = operation_type_histogram(b.graph);
    for (ComponentType type : kAllComponentTypes) {
      if (hist[static_cast<std::size_t>(type)] > 0) {
        EXPECT_GT(b.allocation.count(type), 0)
            << b.name << " lacks " << component_type_name(type);
      }
    }
  }
}

}  // namespace
}  // namespace fbmb
