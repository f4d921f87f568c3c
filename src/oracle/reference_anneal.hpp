// The copy-based simulated-annealing loop, kept verbatim as the oracle
// for anneal_moves (place/sa_engine.hpp): tests/sa_engine_test.cpp runs
// both on the same RNG stream and asserts identical results, and the
// reference SA placer (oracle/reference_placer.cpp) anneals with it.
// Every proposal copies the state. Test/bench oracle only.

#pragma once

#include <cmath>
#include <optional>
#include <utility>

#include "place/sa_engine.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace fbmb {

/// Runs simulated annealing.
///   energy(state) -> double
///   propose(state, rng) -> std::optional<State>  (nullopt = infeasible move)
/// Tracks and returns the best state ever visited (not merely the final one).
template <typename State, typename EnergyFn, typename ProposeFn>
std::pair<State, SaResult> anneal(State initial, EnergyFn&& energy,
                                  ProposeFn&& propose, const SaOptions& opts,
                                  Rng& rng) {
  State current = initial;
  double current_energy = energy(current);
  State best = current;
  double best_energy = current_energy;
  SaResult stats;

  int trace_level = 0;
  for (double t = opts.initial_temperature; t > opts.min_temperature;
       t *= opts.cooling_rate) {
    // Sampled milestone: every 16th temperature level (cheap enough to
    // leave in the hot loop, dense enough to see the cooling curve).
    if ((trace_level++ & 15) == 0) TRACE_COUNTER("place", "sa_temperature", t);
    for (int i = 0; i < opts.iterations_per_temperature; ++i) {
      ++stats.proposals;
      std::optional<State> candidate = propose(current, rng);
      if (!candidate) continue;
      const double candidate_energy = energy(*candidate);
      const double delta = candidate_energy - current_energy;
      if (delta < 0.0 || rng.uniform() < std::exp(-delta / t)) {
        current = std::move(*candidate);
        current_energy = candidate_energy;
        ++stats.acceptances;
        if (current_energy < best_energy) {
          best = current;
          best_energy = current_energy;
        }
      }
    }
  }
  stats.best_energy = best_energy;
  return {std::move(best), stats};
}

}  // namespace fbmb
