#include "graph/graph_algorithms.hpp"

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"

namespace fbmb {
namespace {

SequencingGraph chain3() {
  SequencingGraph g;
  const auto a = g.add_operation("a", ComponentType::kMixer, 5.0);
  const auto b = g.add_operation("b", ComponentType::kMixer, 3.0);
  const auto c = g.add_operation("c", ComponentType::kMixer, 2.0);
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  return g;
}

TEST(LongestPathToSink, Chain) {
  const auto g = chain3();
  const auto dist = longest_path_to_sink(g, 2.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);            // c alone
  EXPECT_DOUBLE_EQ(dist[1], 3.0 + 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(dist[0], 5.0 + 2.0 + 3.0 + 2.0 + 2.0);
}

TEST(LongestPathToSink, PicksLongerBranch) {
  SequencingGraph g;
  const auto a = g.add_operation("a", ComponentType::kMixer, 1.0);
  const auto b = g.add_operation("b", ComponentType::kMixer, 10.0);
  const auto c = g.add_operation("c", ComponentType::kMixer, 2.0);
  g.add_dependency(a, b);
  g.add_dependency(a, c);
  const auto dist = longest_path_to_sink(g, 2.0);
  EXPECT_DOUBLE_EQ(dist[0], 1.0 + 2.0 + 10.0);
}

TEST(LongestPathToSink, PaperExamplePriorityIs21) {
  // Section IV-A: with t_c = 2 the priority value of o1 is 21 for the
  // Fig. 2(a) bioassay (path o1 -> o5 -> o7 -> o10).
  const auto bench = make_paper_example();
  const auto dist = longest_path_to_sink(bench.graph, 2.0);
  EXPECT_DOUBLE_EQ(dist[0], 21.0);
}

TEST(LongestPathToSink, ZeroTransportTime) {
  const auto g = chain3();
  const auto dist = longest_path_to_sink(g, 0.0);
  EXPECT_DOUBLE_EQ(dist[0], 10.0);  // pure duration sum
}

TEST(OperationTypeHistogram, CountsAllTypes) {
  const auto bench = make_ivd();
  const auto hist = operation_type_histogram(bench.graph);
  EXPECT_EQ(hist[static_cast<std::size_t>(ComponentType::kMixer)], 6);
  EXPECT_EQ(hist[static_cast<std::size_t>(ComponentType::kDetector)], 6);
  EXPECT_EQ(hist[static_cast<std::size_t>(ComponentType::kHeater)], 0);
}

}  // namespace
}  // namespace fbmb
