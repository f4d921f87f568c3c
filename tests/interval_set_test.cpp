#include "util/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace fbmb {
namespace {

TEST(TimeInterval, Basics) {
  const TimeInterval iv{2.0, 5.0};
  EXPECT_DOUBLE_EQ(iv.duration(), 3.0);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE((TimeInterval{3.0, 3.0}).empty());
  EXPECT_TRUE((TimeInterval{4.0, 3.0}).empty());
}

TEST(TimeInterval, HalfOpenOverlap) {
  const TimeInterval a{0.0, 2.0};
  EXPECT_FALSE(a.overlaps({2.0, 4.0}));  // touching: no conflict
  EXPECT_TRUE(a.overlaps({1.9, 4.0}));
  EXPECT_TRUE(a.overlaps({-1.0, 0.1}));
  EXPECT_FALSE(a.overlaps({-1.0, 0.0}));
  EXPECT_TRUE(a.overlaps({0.5, 1.5}));  // contained
  EXPECT_TRUE(a.overlaps({-1.0, 3.0}));  // containing
}

TEST(TimeInterval, ContainsPoint) {
  const TimeInterval iv{1.0, 2.0};
  EXPECT_TRUE(iv.contains(1.0));   // inclusive start
  EXPECT_FALSE(iv.contains(2.0));  // exclusive end
  EXPECT_TRUE(iv.contains(1.5));
}

TEST(IntervalSet, InsertDisjointRejectsOverlap) {
  IntervalSet set;
  EXPECT_TRUE(set.insert_disjoint({0.0, 2.0}));
  EXPECT_TRUE(set.insert_disjoint({5.0, 7.0}));
  EXPECT_TRUE(set.insert_disjoint({2.0, 3.0}));  // touching is fine
  EXPECT_FALSE(set.insert_disjoint({6.0, 8.0}));
  EXPECT_FALSE(set.insert_disjoint({-1.0, 0.5}));
  EXPECT_EQ(set.size(), 3u);
}

TEST(IntervalSet, InsertDisjointKeepsSorted) {
  IntervalSet set;
  EXPECT_TRUE(set.insert_disjoint({10.0, 12.0}));
  EXPECT_TRUE(set.insert_disjoint({0.0, 1.0}));
  EXPECT_TRUE(set.insert_disjoint({5.0, 6.0}));
  const auto& ivs = set.intervals();
  ASSERT_EQ(ivs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ivs.begin(), ivs.end(),
                             [](const TimeInterval& a, const TimeInterval& b) {
                               return a.start < b.start;
                             }));
}

TEST(IntervalSet, EmptyIntervalInsertIsNoop) {
  IntervalSet set;
  EXPECT_TRUE(set.insert_disjoint({3.0, 3.0}));
  EXPECT_TRUE(set.empty());
  set.insert_merged({4.0, 4.0});
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, OverlapsQuery) {
  IntervalSet set;
  set.insert_disjoint({0.0, 2.0});
  set.insert_disjoint({4.0, 6.0});
  EXPECT_TRUE(set.overlaps({1.0, 1.5}));
  EXPECT_TRUE(set.overlaps({5.9, 10.0}));
  EXPECT_FALSE(set.overlaps({2.0, 4.0}));  // exactly the gap
  EXPECT_FALSE(set.overlaps({6.0, 8.0}));
  EXPECT_FALSE(set.overlaps({3.0, 3.0}));  // empty never overlaps
}

TEST(IntervalSet, InsertMergedCoalesces) {
  IntervalSet set;
  set.insert_merged({0.0, 2.0});
  set.insert_merged({4.0, 6.0});
  set.insert_merged({1.0, 5.0});  // bridges both
  ASSERT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.intervals()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(set.intervals()[0].end, 6.0);
}

TEST(IntervalSet, InsertMergedCoalescesTouching) {
  IntervalSet set;
  set.insert_merged({0.0, 2.0});
  set.insert_merged({2.0, 3.0});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.intervals()[0].end, 3.0);
}

TEST(IntervalSet, EarliestFit) {
  IntervalSet set;
  set.insert_disjoint({2.0, 4.0});
  set.insert_disjoint({6.0, 8.0});
  EXPECT_DOUBLE_EQ(set.earliest_fit(0.0, 2.0), 0.0);   // fits before
  EXPECT_DOUBLE_EQ(set.earliest_fit(0.0, 2.5), 8.0);   // gaps too small
  EXPECT_DOUBLE_EQ(set.earliest_fit(3.0, 1.0), 4.0);   // pushed past first
  EXPECT_DOUBLE_EQ(set.earliest_fit(4.0, 2.0), 4.0);   // exact gap
  EXPECT_DOUBLE_EQ(set.earliest_fit(9.0, 100.0), 9.0); // after everything
}

TEST(IntervalSet, EarliestFitOnEmptySet) {
  IntervalSet set;
  EXPECT_DOUBLE_EQ(set.earliest_fit(3.5, 10.0), 3.5);
}

/// Property: a randomized sequence of insert_disjoint calls never produces
/// overlapping stored intervals, and overlaps() agrees with a brute-force
/// check — on the empty set too, which each trial's first query and the
/// query after each trial's clear() see.
TEST(IntervalSetProperty, RandomizedDisjointness) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    IntervalSet set;
    std::vector<TimeInterval> accepted;
    for (int i = 0; i < 100; ++i) {
      const double start = rng.uniform(0.0, 100.0);
      const TimeInterval iv{start, start + rng.uniform(0.1, 5.0)};
      const bool brute_overlap =
          std::any_of(accepted.begin(), accepted.end(),
                      [&](const TimeInterval& a) { return a.overlaps(iv); });
      EXPECT_EQ(set.overlaps(iv), brute_overlap);
      if (set.insert_disjoint(iv)) {
        EXPECT_FALSE(brute_overlap);
        accepted.push_back(iv);
      } else {
        EXPECT_TRUE(brute_overlap);
      }
    }
    // Stored intervals pairwise disjoint.
    const auto& ivs = set.intervals();
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      EXPECT_LE(ivs[i - 1].end, ivs[i].start);
    }
    set.clear();
    const double start = rng.uniform(0.0, 100.0);
    EXPECT_FALSE(set.overlaps({start, start + rng.uniform(0.1, 5.0)}));
    EXPECT_TRUE(set.empty());
  }
}

/// Property: insert_merged yields the same coverage as the union of inputs.
TEST(IntervalSetProperty, MergedCoverageMatchesBruteForce) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    IntervalSet set;
    std::vector<TimeInterval> inputs;
    for (int i = 0; i < 40; ++i) {
      const double start = rng.uniform(0.0, 50.0);
      const TimeInterval iv{start, start + rng.uniform(0.1, 8.0)};
      inputs.push_back(iv);
      set.insert_merged(iv);
    }
    // Sample points and compare membership.
    for (int s = 0; s < 200; ++s) {
      const double t = rng.uniform(-1.0, 60.0);
      const bool in_union =
          std::any_of(inputs.begin(), inputs.end(),
                      [&](const TimeInterval& iv) { return iv.contains(t); });
      const bool in_set = set.overlaps({t, t + 1e-9});
      EXPECT_EQ(in_union, in_set) << "at t=" << t;
    }
  }
}

}  // namespace
}  // namespace fbmb
