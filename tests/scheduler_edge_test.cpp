// Scheduler edge cases: degenerate parameters, extreme shapes, and
// determinism under ties.

#include <gtest/gtest.h>

#include <string>

#include "bench_suite/synthetic.hpp"
#include "graph/graph_builder.hpp"
#include "oracle/reference_scheduler.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/validator.hpp"

namespace fbmb {
namespace {

/// `prefix` followed by `i`, e.g. "n3".
std::string numbered(const char* prefix, int i) {
  return std::string(prefix).append(std::to_string(i));
}

void expect_valid(const GraphBuilder& b, const AllocationSpec& spec,
                  const Schedule& s) {
  const auto errors =
      validate_schedule(s, b.graph(), Allocation(spec), b.wash_model());
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

/// Asserts SchedulerCore agrees bit-for-bit with the frozen reference on
/// this input, then returns the (core) schedule for further assertions.
Schedule schedule_checked(const GraphBuilder& b, const AllocationSpec& spec,
                          const SchedulerOptions& opts = {}) {
  const Allocation alloc(spec);
  const Schedule core =
      schedule_bioassay(b.graph(), alloc, b.wash_model(), opts);
  const Schedule ref =
      schedule_bioassay_reference(b.graph(), alloc, b.wash_model(), opts);
  EXPECT_TRUE(core == ref)
      << "core diverged from reference:\n"
      << core.to_string(b.graph()) << ref.to_string(b.graph());
  return core;
}

TEST(SchedulerEdge, ZeroTransportTime) {
  GraphBuilder b;
  const auto a = b.mix("a", 3, 2.0);
  const auto d = b.detect("d", 2, 0.2);
  b.dep(a, d);
  SchedulerOptions opts;
  opts.transport_time = 0.0;
  const auto s = schedule_bioassay(b.graph(), Allocation({1, 0, 0, 1}),
                                   b.wash_model(), opts);
  EXPECT_DOUBLE_EQ(s.at(d).start, 3.0);  // instantaneous transport
  expect_valid(b, {1, 0, 0, 1}, s);
}

TEST(SchedulerEdge, EnormousWashTimeSerializesComponent) {
  GraphBuilder b;
  const auto a = b.mix("a", 1, 500.0);
  const auto c = b.mix("c", 1, 0.2);  // independent, same single mixer
  const auto da = b.detect("da", 1, 0.2);
  const auto dc = b.detect("dc", 1, 0.2);
  b.dep(a, da);
  b.dep(c, dc);
  const auto s =
      schedule_bioassay(b.graph(), Allocation({1, 0, 0, 2}), b.wash_model());
  // Whichever mix runs second waits out the first's wash.
  const double second_start =
      std::max(s.at(a).start, s.at(c).start);
  EXPECT_GT(second_start, 100.0);
  expect_valid(b, {1, 0, 0, 2}, s);
}

TEST(SchedulerEdge, WideFanInMixer) {
  // Our model allows k-ary dependency fan-in; all inputs must arrive.
  GraphBuilder b;
  std::vector<OperationId> leaves;
  for (int i = 0; i < 6; ++i) {
    leaves.push_back(b.mix("leaf" + std::to_string(i), 2 + i, 0.2));
  }
  const auto sink = b.mix("sink", 3, 0.2);
  for (const auto leaf : leaves) b.dep(leaf, sink);
  const auto s =
      schedule_bioassay(b.graph(), Allocation({3, 0, 0, 0}), b.wash_model());
  for (const auto leaf : leaves) {
    EXPECT_GE(s.at(sink).start, s.at(leaf).end);
  }
  expect_valid(b, {3, 0, 0, 0}, s);
}

TEST(SchedulerEdge, DeepChainAlternatingTypes) {
  GraphBuilder b;
  OperationId prev = b.mix("n0", 1, 0.2);
  for (int i = 1; i < 20; ++i) {
    const OperationId next =
        i % 2 == 0 ? b.mix(numbered("n", i), 1, 0.2)
                   : b.heat(numbered("n", i), 1, 0.2);
    b.dep(prev, next);
    prev = next;
  }
  const auto s =
      schedule_bioassay(b.graph(), Allocation({1, 1, 0, 0}), b.wash_model());
  // Every hand-off alternates components: 19 transports, each t_c.
  EXPECT_EQ(s.transports.size(), 19u);
  EXPECT_DOUBLE_EQ(s.completion_time, 20.0 * 1.0 + 19.0 * 2.0);
  expect_valid(b, {1, 1, 0, 0}, s);
}

TEST(SchedulerEdge, ManyIndependentOpsOnOneComponent) {
  GraphBuilder b;
  for (int i = 0; i < 12; ++i) {
    b.mix(numbered("m", i), 2, 0.5);
  }
  const auto s =
      schedule_bioassay(b.graph(), Allocation({1, 0, 0, 0}), b.wash_model());
  // Serial execution with a wash between every pair: 12*2 + 11*0.5.
  EXPECT_DOUBLE_EQ(s.completion_time, 24.0 + 5.5);
  EXPECT_EQ(s.component_washes.size(), 11u);
  expect_valid(b, {1, 0, 0, 0}, s);
}

TEST(SchedulerEdge, EqualPrioritiesDeterministicOrder) {
  // 4 identical independent ops on 2 mixers: ties broken by id, twice.
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.mix(numbered("m", i), 3, 0.2);
  const Allocation alloc(AllocationSpec{2, 0, 0, 0});
  const auto s1 = schedule_bioassay(b.graph(), alloc, b.wash_model());
  const auto s2 = schedule_bioassay(b.graph(), alloc, b.wash_model());
  for (std::size_t i = 0; i < s1.operations.size(); ++i) {
    EXPECT_EQ(s1.operations[i].component, s2.operations[i].component);
    EXPECT_DOUBLE_EQ(s1.operations[i].start, s2.operations[i].start);
  }
  // Lower ids land first: m0, m1 start at 0 on c0/c1.
  EXPECT_DOUBLE_EQ(s1.at(OperationId{0}).start, 0.0);
  EXPECT_DOUBLE_EQ(s1.at(OperationId{1}).start, 0.0);
}

TEST(SchedulerEdge, SingleSourceMassiveFanOut) {
  GraphBuilder b;
  const auto root = b.mix("root", 2, 4.0);
  for (int i = 0; i < 10; ++i) {
    const auto leaf = b.detect(numbered("d", i), 1, 0.2);
    b.dep(root, leaf);
  }
  const auto s =
      schedule_bioassay(b.graph(), Allocation({1, 0, 0, 2}), b.wash_model());
  // 10 shares of out(root) all transported; none in place (type differs).
  EXPECT_EQ(s.transports.size(), 10u);
  expect_valid(b, {1, 0, 0, 2}, s);
}

TEST(SchedulerEdge, FractionalDurationsAndWashes) {
  GraphBuilder b;
  const auto a = b.mix("a", 0.25, 0.3);
  const auto c = b.mix("c", 1.75, 0.7);
  b.dep(a, c);
  const auto s =
      schedule_bioassay(b.graph(), Allocation({1, 0, 0, 0}), b.wash_model());
  EXPECT_DOUBLE_EQ(s.completion_time, 2.0);  // in place, no wash between
  expect_valid(b, {1, 0, 0, 0}, s);
}

TEST(SchedulerEdge, LargeSyntheticStaysValidAndFast) {
  SyntheticSpec spec;
  spec.operations = 300;
  spec.seed = 77;
  spec.allocation = {8, 4, 4, 4};
  const auto graph = generate_synthetic_graph(spec);
  const Allocation alloc(spec.allocation);
  const WashModel wash;
  const auto s = schedule_bioassay(graph, alloc, wash);
  const auto errors = validate_schedule(s, graph, alloc, wash);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(SchedulerEdge, SerialChainRunsFullyInPlaceUnderDcsa) {
  // A pure chain: the DCSA policy keeps the whole chain in one chamber
  // (12 s, zero transports); BA's earliest-ready rule ping-pongs to the
  // idle second mixer (it is "ready" at t=0) and pays transports — the
  // cleanest illustration of why Case I matters.
  GraphBuilder b;
  OperationId prev = b.mix("c0", 2, 1.0);
  for (int i = 1; i < 6; ++i) {
    const auto next = b.mix(numbered("c", i), 2, 1.0);
    b.dep(prev, next);
    prev = next;
  }
  const Allocation alloc(AllocationSpec{2, 0, 0, 0});
  SchedulerOptions ba;
  ba.policy = BindingPolicy::kBaseline;
  const auto ours = schedule_bioassay(b.graph(), alloc, b.wash_model());
  const auto base = schedule_bioassay(b.graph(), alloc, b.wash_model(), ba);
  EXPECT_DOUBLE_EQ(ours.completion_time, 12.0);  // all in place
  EXPECT_TRUE(ours.transports.empty());
  EXPECT_GT(base.completion_time, ours.completion_time);
  EXPECT_FALSE(base.transports.empty());
}

TEST(SchedulerEdge, CaseOneTieBreakOnEqualDiffusion) {
  // Two same-type parents with EQUAL diffusion coefficients (equal wash
  // seconds), each resident in its own mixer when the child is bound:
  // Case I must tie-break to the smaller operation id, deterministically.
  GraphBuilder b;
  const auto p0 = b.mix("p0", 3, 2.0);
  const auto p1 = b.mix("p1", 3, 2.0);
  const auto child = b.mix("child", 2, 0.2);
  b.dep(p0, child);
  b.dep(p1, child);
  const auto s = schedule_checked(b, {2, 0, 0, 0});
  ASSERT_EQ(b.graph().operation(p0).output.diffusion_coefficient,
            b.graph().operation(p1).output.diffusion_coefficient);
  // p0 and p1 run concurrently on the two mixers; the child consumes the
  // lower-id parent's fluid in place and transports the other one.
  EXPECT_EQ(s.at(child).in_place_parent, p0);
  EXPECT_EQ(s.at(child).component, s.at(p0).component);
  ASSERT_EQ(s.transports.size(), 1u);
  EXPECT_EQ(s.transports[0].producer, p1);
  expect_valid(b, {2, 0, 0, 0}, s);
}

TEST(SchedulerEdge, CaseTwoTieBreakOnEqualReadyTime) {
  // Three equal independent mixes on two mixers: after m0/m1 occupy both
  // components, m2 sees two candidates with EQUAL t_ready (same end, same
  // wash) and Case II must keep the first qualified component (allocation
  // order), not the last probed.
  GraphBuilder b;
  const auto m0 = b.mix("m0", 3, 0.5);
  const auto m1 = b.mix("m1", 3, 0.5);
  const auto m2 = b.mix("m2", 3, 0.5);
  (void)m1;
  const auto s = schedule_checked(b, {2, 0, 0, 0});
  EXPECT_EQ(s.at(m2).component, s.at(m0).component);  // first component
  EXPECT_DOUBLE_EQ(s.at(m2).start, 3.5);              // t_ready = 3 + 0.5
  expect_valid(b, {2, 0, 0, 0}, s);
}

TEST(SchedulerEdge, OnlyQualifiedComponentBusyPastAllPeers) {
  // The single detector is held by a long-running detection until well
  // after every mixer peer has finished; each dependent detection must
  // wait out the residency AND the wash, not start at fluid arrival.
  GraphBuilder b;
  const auto slow = b.detect("slow", 50, 1.0);
  (void)slow;
  std::vector<OperationId> detects;
  for (int i = 0; i < 3; ++i) {
    const auto m = b.mix(numbered("m", i), 2, 0.2);
    const auto d = b.detect(numbered("d", i), 1, 0.2);
    b.dep(m, d);
    detects.push_back(d);
  }
  const auto s = schedule_checked(b, {1, 0, 0, 1});
  // All mixes end long before the detector frees up at 50 + wash(slow).
  for (int i = 0; i < 3; ++i) {
    EXPECT_LE(s.at(OperationId{1 + 2 * i}).end, 10.0);
  }
  for (const auto d : detects) {
    EXPECT_GE(s.at(d).start, 51.0);  // 50 s residency + 1 s wash
  }
  expect_valid(b, {1, 0, 0, 1}, s);
}

}  // namespace
}  // namespace fbmb
