#include "place/sa_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracle/reference_anneal.hpp"

namespace fbmb {
namespace {

TEST(SaEngine, MinimizesQuadratic) {
  // f(x) = (x - 3)^2 over integers; SA must land at/near x = 3.
  Rng rng(1);
  SaOptions opts;
  opts.initial_temperature = 100.0;
  opts.min_temperature = 0.01;
  opts.cooling_rate = 0.9;
  opts.iterations_per_temperature = 50;
  auto [best, stats] = anneal(
      100,
      [](int x) { return static_cast<double>((x - 3) * (x - 3)); },
      [](int x, Rng& r) -> std::optional<int> {
        return x + r.uniform_int(-5, 5);
      },
      opts, rng);
  EXPECT_EQ(best, 3);
  EXPECT_DOUBLE_EQ(stats.best_energy, 0.0);
  EXPECT_GT(stats.acceptances, 0);
}

TEST(SaEngine, ReturnsBestEverVisitedNotFinal) {
  // Energy that keeps wandering: the engine must remember the best state.
  Rng rng(7);
  SaOptions opts;
  opts.initial_temperature = 1000.0;  // stays hot the whole run
  opts.min_temperature = 500.0;
  opts.cooling_rate = 0.9;
  opts.iterations_per_temperature = 200;
  auto [best, stats] = anneal(
      50, [](int x) { return std::abs(x - 7.0); },
      [](int x, Rng& r) -> std::optional<int> {
        return x + r.uniform_int(-3, 3);
      },
      opts, rng);
  EXPECT_DOUBLE_EQ(std::abs(best - 7.0), stats.best_energy);
}

TEST(SaEngine, InfeasibleProposalsAreSkipped) {
  Rng rng(3);
  SaOptions opts;
  opts.initial_temperature = 10.0;
  opts.min_temperature = 1.0;
  opts.cooling_rate = 0.5;
  opts.iterations_per_temperature = 10;
  int proposals_made = 0;
  auto [best, stats] = anneal(
      0, [](int x) { return static_cast<double>(x); },
      [&](int, Rng&) -> std::optional<int> {
        ++proposals_made;
        return std::nullopt;  // everything infeasible
      },
      opts, rng);
  EXPECT_EQ(best, 0);               // unchanged
  EXPECT_EQ(stats.acceptances, 0);
  EXPECT_GT(proposals_made, 0);
  EXPECT_EQ(stats.proposals, proposals_made);
}

TEST(SaEngine, DeterministicForSeed) {
  SaOptions opts;
  opts.initial_temperature = 100.0;
  opts.min_temperature = 0.1;
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    return anneal(
               1000, [](int x) { return std::abs(x + 17.0); },
               [](int x, Rng& r) -> std::optional<int> {
                 return x + r.uniform_int(-10, 10);
               },
               opts, rng)
        .first;
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(SaEngine, TemperatureCountMatchesSchedule) {
  // proposals == iterations_per_temperature * number of temperature steps.
  Rng rng(9);
  SaOptions opts;
  opts.initial_temperature = 8.0;
  opts.min_temperature = 1.0;
  opts.cooling_rate = 0.5;  // 8 -> 4 -> 2 -> (1 stops): 3 levels
  opts.iterations_per_temperature = 25;
  auto [best, stats] = anneal(
      0, [](int) { return 0.0; },
      [](int x, Rng&) -> std::optional<int> { return x; }, opts, rng);
  EXPECT_EQ(stats.proposals, 3 * 25);
}

TEST(SaEngine, AcceptsUphillWhenHot) {
  // At very high temperature nearly everything is accepted.
  Rng rng(11);
  SaOptions opts;
  opts.initial_temperature = 1e9;
  opts.min_temperature = 1e8;
  opts.cooling_rate = 0.5;
  opts.iterations_per_temperature = 100;
  auto [best, stats] = anneal(
      0, [](int x) { return static_cast<double>(x); },
      [](int x, Rng&) -> std::optional<int> { return x + 1; },  // always worse
      opts, rng);
  EXPECT_GT(stats.acceptances, 300);  // ~all of 400 accepted
}

// Toy in-place move/undo model over an integer state: f(x) = (x - 3)^2,
// proposals nudge by uniform_int(-5, 5). Draw-for-draw identical to the
// copy-based propose used in the tests above.
class QuadraticModel {
 public:
  explicit QuadraticModel(int x) : x_(x) {}
  double energy() const { return f(x_); }
  std::optional<double> propose(Rng& rng) {
    pending_ = x_ + rng.uniform_int(-5, 5);
    return f(pending_);
  }
  void commit() { x_ = pending_; }
  void revert() {}
  const int& state() const { return x_; }

 private:
  static double f(int x) { return static_cast<double>((x - 3) * (x - 3)); }
  int x_ = 0;
  int pending_ = 0;
};

TEST(SaEngine, MoveProtocolMatchesCopyBasedAnneal) {
  // anneal_moves consumes the RNG stream exactly like anneal and applies
  // the same accept rule, so on identical seeds the two runs must agree on
  // the best state, best energy, and both counters.
  SaOptions opts;
  opts.initial_temperature = 100.0;
  opts.min_temperature = 0.01;
  opts.cooling_rate = 0.9;
  opts.iterations_per_temperature = 50;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng_copy(seed);
    auto [best_copy, stats_copy] = anneal(
        100,
        [](int x) { return static_cast<double>((x - 3) * (x - 3)); },
        [](int x, Rng& r) -> std::optional<int> {
          return x + r.uniform_int(-5, 5);
        },
        opts, rng_copy);

    Rng rng_moves(seed);
    QuadraticModel model(100);
    auto [best_moves, stats_moves] = anneal_moves(model, opts, rng_moves);

    EXPECT_EQ(best_moves, best_copy) << "seed " << seed;
    EXPECT_EQ(stats_moves.best_energy, stats_copy.best_energy);  // bitwise
    EXPECT_EQ(stats_moves.proposals, stats_copy.proposals);
    EXPECT_EQ(stats_moves.acceptances, stats_copy.acceptances);
  }
}

TEST(SaEngine, MoveProtocolRevertsRejectedMoves) {
  // A model that counts protocol calls: every feasible proposal must end in
  // exactly one commit or one revert, never both, never neither.
  class CountingModel {
   public:
    double energy() const { return static_cast<double>(x_); }
    std::optional<double> propose(Rng& rng) {
      ++proposals;
      if (rng.chance(0.25)) return std::nullopt;  // infeasible, no undo due
      pending_ = x_ + rng.uniform_int(-2, 2);
      return static_cast<double>(pending_);
    }
    void commit() { ++commits; x_ = pending_; }
    void revert() { ++reverts; }
    const int& state() const { return x_; }
    int proposals = 0;
    int commits = 0;
    int reverts = 0;

   private:
    int x_ = 50;
    int pending_ = 50;
  };
  Rng rng(17);
  SaOptions opts;
  opts.initial_temperature = 4.0;
  opts.min_temperature = 1.0;
  opts.cooling_rate = 0.5;
  opts.iterations_per_temperature = 40;
  CountingModel model;
  auto [best, stats] = anneal_moves(model, opts, rng);
  EXPECT_EQ(stats.proposals, model.proposals);
  EXPECT_GT(model.commits, 0);
  EXPECT_GT(model.reverts, 0);
  const int feasible = model.commits + model.reverts;
  EXPECT_LT(feasible, model.proposals);  // some draws were infeasible
  EXPECT_EQ(stats.acceptances, model.commits);
  EXPECT_LE(best, 50);  // energy is x itself; best can only improve
}

}  // namespace
}  // namespace fbmb
