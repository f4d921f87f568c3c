// The route–retime fixpoint (FlowCore).
//
// Routing resolves transport conflicts by postponing tasks; postponements
// must be folded back into the schedule (retiming), which changes the
// windows later transports route against, so routing and retiming iterate
// until a round produces no delays. Delays only push events later, but
// that does not make the loop converge: postponing an input can push the
// later operations on its component, and with them the plugs parked for
// those operations, into a wait-for cycle that repeats every round. On
// 70-operation assays about a third of candidate fixpoints run into
// RouterOptions::max_fixpoint_rounds (ROADMAP.md, item (1)). The round
// after the cap routes the schedule retimed by the last capped round and
// ends the loop whatever its delays (reported via
// RouteStats::fixpoints_capped); those delays are reported, not retimed,
// so a capped (schedule, routing) pair is not consistent: every one
// measured fails simulate_chip.
//
// route_until_consistent keeps one IncrementalRouter on one grid across
// rounds, so after the first round only the dirty set (retimed transports
// plus the closure of replay conflicts) is re-routed — see
// route/incremental_router.hpp for the dirty-set rule. The from-scratch
// loop it replaced (fresh grid + one-shot route per round) is the test
// oracle route_until_consistent_reference (oracle/reference_flow.hpp):
// tests/flow_equivalence_test.cpp proves the two produce bit-identical
// (Schedule, RoutingResult) pairs on every paper benchmark under both
// presets, and bench/flow_perf measures the speedup.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "graph/sequencing_graph.hpp"
#include "place/placement.hpp"
#include "route/incremental_router.hpp"
#include "route/router.hpp"
#include "schedule/types.hpp"
#include "util/fields.hpp"

namespace fbmb {

/// Wall time spent in each stage of one synthesis flow, in seconds. Filled
/// by synthesize_custom (and therefore by both presets); the runtime
/// telemetry layer aggregates these across batched jobs.
struct StageTimes {
  double schedule = 0.0;    ///< binding & list scheduling
  double refine = 0.0;      ///< channel-storage refinement pass
  double place = 0.0;       ///< placement (SA restarts + polish, or BA)
  double grid_build = 0.0;  ///< RoutingGrid (re)builds and resets
  double route = 0.0;       ///< A* routing rounds (dominant stage)
  double retime = 0.0;      ///< folding router postponements into the schedule

  /// Every stage above, in flow order, as {JSON key, member}
  /// (util/fields.hpp).
  static constexpr Field<StageTimes, double> kFields[] = {
      {"schedule", &StageTimes::schedule},
      {"refine", &StageTimes::refine},
      {"place", &StageTimes::place},
      {"grid_build", &StageTimes::grid_build},
      {"route", &StageTimes::route},
      {"retime", &StageTimes::retime},
  };

  /// The stages summed in table order.
  double total() const {
    double sum = 0.0;
    for (const auto& field : kFields) sum += this->*field.member;
    return sum;
  }
};

/// Reuse counters for the route–retime fixpoint; summed over every
/// fixpoint a flow runs (one per SA placement candidate). Telemetry-only,
/// like RouteStats.
struct FlowStats {
  std::uint64_t rounds = 0;               ///< routing rounds executed
  std::uint64_t transports_rerouted = 0;  ///< tasks that ran the A* pipeline
  std::uint64_t transports_reused = 0;    ///< tasks replayed without search
  std::uint64_t cells_evicted = 0;  ///< cell reservations dropped by dirt
  /// Per-round breakdown, in execution order (concatenated across
  /// fixpoints). Not threaded through telemetry or the result cache; the
  /// flow_perf bench reports per-round re-route fractions from it.
  std::vector<FlowRound> round_details;

  /// The four counters above (not round_details), as {JSON key, member}
  /// (util/fields.hpp).
  static constexpr Field<FlowStats, std::uint64_t> kFields[] = {
      {"rounds", &FlowStats::rounds},
      {"transports_rerouted", &FlowStats::transports_rerouted},
      {"transports_reused", &FlowStats::transports_reused},
      {"cells_evicted", &FlowStats::cells_evicted},
  };

  FlowStats& operator+=(const FlowStats& o) {
    add_fields(*this, o);
    round_details.insert(round_details.end(), o.round_details.begin(),
                         o.round_details.end());
    return *this;
  }
};

/// Routes `schedule` until the (schedule, routing) pair is consistent,
/// retiming between rounds, re-routing only the dirty set after the first
/// round. Mutates `schedule` (retiming) and adds the grid_build/route/
/// retime spans to `stages`. `checkpoint`, when set, is invoked with
/// "route" before every transport inside every routing round
/// (cancellation hook; latency is bounded by one search, not one round).
/// `flow`, when set, receives the reuse accounting.
RoutingResult route_until_consistent(
    Schedule& schedule, const SequencingGraph& graph,
    const Allocation& allocation, const ChipSpec& chip,
    const Placement& placement, const WashModel& wash_model,
    const RouterOptions& router_options, StageTimes& stages,
    const std::function<void(const char*)>& checkpoint,
    FlowStats* flow = nullptr);

}  // namespace fbmb
