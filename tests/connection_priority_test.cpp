#include "place/connection_priority.hpp"

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "oracle/reference_placer.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/rng.hpp"

namespace fbmb {
namespace {

TransportTask make_transport(int id, int from, int to, double dep,
                             double t_c, double consume, double diffusion) {
  TransportTask t;
  t.id = id;
  t.from = ComponentId{from};
  t.to = ComponentId{to};
  t.fluid = Fluid{"f" + std::to_string(id), diffusion};
  t.departure = dep;
  t.transport_time = t_c;
  t.consume = consume;
  return t;
}

TEST(ConcurrentTransportCount, OverlapsByMovementWindow) {
  std::vector<TransportTask> ts = {
      make_transport(0, 0, 1, 0.0, 2.0, 2.0, 1e-5),   // moves [0,2)
      make_transport(1, 2, 3, 1.0, 2.0, 3.0, 1e-5),   // moves [1,3)
      make_transport(2, 0, 2, 5.0, 2.0, 7.0, 1e-5),   // moves [5,7)
  };
  EXPECT_EQ(concurrent_transport_count(ts, 0), 1);  // overlaps task 1 only
  EXPECT_EQ(concurrent_transport_count(ts, 1), 1);
  EXPECT_EQ(concurrent_transport_count(ts, 2), 0);
}

TEST(ConcurrentTransportCount, TouchingWindowsDoNotCount) {
  std::vector<TransportTask> ts = {
      make_transport(0, 0, 1, 0.0, 2.0, 2.0, 1e-5),  // [0,2)
      make_transport(1, 2, 3, 2.0, 2.0, 4.0, 1e-5),  // [2,4)
  };
  EXPECT_EQ(concurrent_transport_count(ts, 0), 0);
}

TEST(ConcurrentTransportCounts, ZeroDurationWindows) {
  // A zero-duration window overlaps exactly the windows whose interior
  // strictly contains its instant — never a touching endpoint and never
  // another zero-duration window, even one at the same instant.
  std::vector<TransportTask> ts = {
      make_transport(0, 0, 1, 0.0, 4.0, 4.0, 1e-5),  // [0,4)
      make_transport(1, 2, 3, 2.0, 0.0, 2.0, 1e-5),  // instant at 2
      make_transport(2, 4, 5, 2.0, 0.0, 2.0, 1e-5),  // instant at 2
      make_transport(3, 6, 7, 4.0, 0.0, 4.0, 1e-5),  // instant at 4 (touch)
  };
  const std::vector<int> counts = concurrent_transport_counts(ts);
  ASSERT_EQ(counts.size(), ts.size());
  EXPECT_EQ(counts[0], 2);  // the two instants inside (0,4)
  EXPECT_EQ(counts[1], 1);  // task 0 only, not the co-located instant
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 0);  // touching the end of [0,4) does not count
}

TEST(ConcurrentTransportCounts, MatchesQuadraticOracleOnRandomWindows) {
  // The sweep must agree index-for-index with the O(T^2) oracle on random
  // window soups, including duplicated endpoints and zero-duration windows.
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = rng.uniform_int(1, 40);
    std::vector<TransportTask> ts;
    ts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Integer-grid departures force plenty of shared endpoints; roughly a
      // quarter of the windows are zero-duration.
      const double dep = static_cast<double>(rng.uniform_int(0, 12));
      const double dur = rng.chance(0.25)
                             ? 0.0
                             : static_cast<double>(rng.uniform_int(1, 6));
      ts.push_back(make_transport(i, 2 * i, 2 * i + 1, dep, dur, dep + dur,
                                  1e-5));
    }
    const std::vector<int> sweep = concurrent_transport_counts(ts);
    ASSERT_EQ(sweep.size(), ts.size());
    for (std::size_t k = 0; k < ts.size(); ++k) {
      EXPECT_EQ(sweep[k], concurrent_transport_count(ts, k))
          << "trial " << trial << ", task " << k;
    }
  }
}

TEST(BuildNets, EquationFourArithmetic) {
  // One isolated task between c0 and c1: nt = 0.
  // cp = beta*0 + gamma*wash(fluid). With the default model, D = 5e-8 gives
  // a 6 s wash.
  Schedule s;
  s.transports = {make_transport(0, 0, 1, 0.0, 2.0, 2.0, 5e-8)};
  const auto nets = build_nets(s, WashModel{}, 0.6, 0.4);
  ASSERT_EQ(nets.size(), 1u);
  EXPECT_EQ(nets[0].a.value, 0);
  EXPECT_EQ(nets[0].b.value, 1);
  EXPECT_EQ(nets[0].task_count, 1);
  EXPECT_NEAR(nets[0].priority, 0.4 * 6.0, 1e-9);
}

TEST(BuildNets, ConcurrencyTermCounts) {
  // Two concurrent tasks on different pairs: each net gets beta*1 +
  // gamma*wash.
  Schedule s;
  s.transports = {
      make_transport(0, 0, 1, 0.0, 2.0, 2.0, 1e-5),  // wash 0.2
      make_transport(1, 2, 3, 0.0, 2.0, 2.0, 1e-5),
  };
  const auto nets = build_nets(s, WashModel{}, 0.6, 0.4);
  ASSERT_EQ(nets.size(), 2u);
  for (const auto& net : nets) {
    EXPECT_NEAR(net.priority, 0.6 * 1.0 + 0.4 * 0.2, 1e-9);
  }
}

TEST(BuildNets, AccumulatesTasksOnSamePair) {
  Schedule s;
  s.transports = {
      make_transport(0, 0, 1, 0.0, 2.0, 2.0, 1e-5),
      make_transport(1, 1, 0, 10.0, 2.0, 12.0, 1e-5),  // reverse direction
  };
  const auto nets = build_nets(s, WashModel{}, 0.6, 0.4);
  ASSERT_EQ(nets.size(), 1u);  // same undirected pair
  EXPECT_EQ(nets[0].task_count, 2);
  EXPECT_NEAR(nets[0].priority, 2.0 * 0.4 * 0.2, 1e-9);
}

TEST(BuildNets, SelfTransportsProduceNoNet) {
  Schedule s;
  s.transports = {make_transport(0, 2, 2, 0.0, 2.0, 5.0, 1e-5)};
  EXPECT_TRUE(build_nets(s, WashModel{}, 0.6, 0.4).empty());
}

TEST(BuildNets, LowerDiffusionRaisesPriority) {
  // Eq. 4 rationale: fluids with lower diffusion coefficients (longer wash)
  // should pull their endpoints closer.
  Schedule fast, slow;
  fast.transports = {make_transport(0, 0, 1, 0.0, 2.0, 2.0, 1e-5)};
  slow.transports = {make_transport(0, 0, 1, 0.0, 2.0, 2.0, 5e-8)};
  const auto nf = build_nets(fast, WashModel{}, 0.6, 0.4);
  const auto ns = build_nets(slow, WashModel{}, 0.6, 0.4);
  ASSERT_EQ(nf.size(), 1u);
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_GT(ns[0].priority, nf[0].priority);
}

TEST(BuildNets, OnRealBenchmarkNetsAreSorted) {
  const auto bench = make_cpa();
  const Allocation alloc(bench.allocation);
  const auto schedule = schedule_bioassay(bench.graph, alloc, bench.wash);
  const auto nets = build_nets(schedule, bench.wash, 0.6, 0.4);
  EXPECT_FALSE(nets.empty());
  for (const auto& net : nets) {
    EXPECT_LT(net.a.value, net.b.value);
    EXPECT_GT(net.priority, 0.0);
    EXPECT_GT(net.task_count, 0);
  }
  for (std::size_t i = 1; i < nets.size(); ++i) {
    EXPECT_TRUE(nets[i - 1].a.value < nets[i].a.value ||
                (nets[i - 1].a == nets[i].a &&
                 nets[i - 1].b.value < nets[i].b.value));
  }
}

}  // namespace
}  // namespace fbmb
