// Generic simulated-annealing engine (Kirkpatrick et al., Science 1983).
//
// The paper's placement (Algorithm 2, lines 1-8) is classic SA: starting
// from a random placement at temperature T0, each temperature level runs
// I_max proposed transformations; a proposal is accepted if it lowers the
// energy or with probability exp(-dE/T); T decays geometrically by alpha
// until T_min. The engine is generic over the model so tests can
// exercise it on analytic toy problems with known optima. Its oracle, the
// copy-based `anneal` it replaced, lives in oracle/reference_anneal.hpp.

#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace fbmb {

struct SaOptions {
  double initial_temperature = 10000.0;  ///< T0
  double min_temperature = 1.0;          ///< T_min
  double cooling_rate = 0.9;             ///< alpha
  int iterations_per_temperature = 150;  ///< I_max
};

struct SaResult {
  double best_energy = 0.0;
  long proposals = 0;
  long acceptances = 0;
};

/// Annealing over an in-place move/undo model — the same schedule, accept
/// rule, RNG consumption, and best tracking as the copy-based `anneal`
/// (oracle/reference_anneal.hpp), without copying the state per proposal.
/// Model requirements:
///   double energy();                      // energy of the bound state
///   std::optional<double> propose(Rng&);  // tentatively applies a move and
///                                         // returns the candidate energy;
///                                         // nullopt = infeasible, state
///                                         // untouched
///   void commit();                        // keep the tentative move
///   void revert();                        // roll the tentative move back
///   const State& state();                 // current state, for snapshots
/// Returns the best state ever visited plus the run statistics. Given a
/// model whose candidate energies match what `energy` would report on the
/// copied candidate (bit-for-bit), the result is identical to `anneal`
/// with a copy-based propose over the same RNG stream.
template <typename Model>
auto anneal_moves(Model& model, const SaOptions& opts, Rng& rng)
    -> std::pair<std::decay_t<decltype(model.state())>, SaResult> {
  double current_energy = model.energy();
  std::decay_t<decltype(model.state())> best = model.state();
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
      const std::optional<double> candidate_energy = model.propose(rng);
      if (!candidate_energy) continue;
      const double delta = *candidate_energy - current_energy;
      if (delta < 0.0 || rng.uniform() < std::exp(-delta / t)) {
        model.commit();
        current_energy = *candidate_energy;
        ++stats.acceptances;
        if (current_energy < best_energy) {
          best = model.state();
          best_energy = current_energy;
        }
      } else {
        model.revert();
      }
    }
  }
  stats.best_energy = best_energy;
  return {std::move(best), stats};
}

}  // namespace fbmb
