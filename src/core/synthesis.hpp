// Top-level synthesis flows.
//
// synthesize_dcsa runs the paper's full top-down flow: DCSA-aware binding &
// scheduling (Algorithm 1) -> storage refinement -> SA placement (Eq. 3/4)
// -> conflict-aware wash-weighted A* routing (Eq. 5) -> retiming (a no-op
// when routing introduced no postponement) -> metrics.
//
// synthesize_baseline runs BA (Section V): earliest-ready binding, eager
// fluid departures, construction-by-correction placement, wash-oblivious
// shortest-path routing with conflicts resolved by postponement, then
// retiming to propagate those postponements into the final completion time.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "core/flow_core.hpp"
#include "graph/sequencing_graph.hpp"
#include "place/constructive_placer.hpp"
#include "place/placement.hpp"
#include "place/sa_placer.hpp"
#include "route/router.hpp"
#include "route/types.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/metrics.hpp"
#include "schedule/scheduler_core.hpp"
#include "schedule/types.hpp"

namespace fbmb {

/// Which placement engine a custom flow uses.
enum class PlacementStrategy {
  kSimulatedAnnealing,  ///< Eq. 3/4 SA with routed-metric restart selection
  kConstructive,        ///< BA's construction-by-correction
};

struct SynthesisOptions {
  ChipSpec chip;  ///< grid derived from the allocation when not fixed
  SchedulerOptions scheduler;
  PlacerOptions placer;
  ConstructivePlacerOptions baseline_placer;
  RouterOptions router;
  PlacementStrategy placement = PlacementStrategy::kSimulatedAnnealing;
  /// Invoked at every stage boundary (and before each routing round) with
  /// the name of the stage about to run. A deadline/cancellation hook for
  /// services: throwing (e.g. SynthesisCancelled) aborts the flow cleanly
  /// between stages. Execution policy — not part of the input fingerprint,
  /// cannot change the result of a flow that runs to completion.
  std::function<void(const char* stage)> checkpoint;
  /// Stamped on every trace event this synthesis emits (see src/trace);
  /// 0 means "no id". Like `checkpoint`, pure execution policy: excluded
  /// from the input fingerprint and unable to change the result.
  std::uint64_t trace_id = 0;
};

// StageTimes lives in core/flow_core.hpp (included above) alongside the
// route–retime fixpoint that fills its grid_build/route/retime spans.

/// Everything a flow produces, plus the paper's reported metrics.
struct SynthesisResult {
  Schedule schedule;      ///< final (post-retiming) schedule
  Placement placement;
  RoutingResult routing;
  ChipSpec chip;          ///< with the resolved grid
  ScheduleStats stats;    ///< computed on the final schedule
  /// SA placement search counters, summed over all restarts (zero for the
  /// constructive/BA placer, which proposes no moves).
  PlaceStats place_stats;
  /// List-scheduler search counters (heap traffic, binding probes, Case
  /// I/II decisions) for the single scheduling pass of the flow.
  SchedStats sched_stats;
  /// Route–retime fixpoint reuse counters (rounds, transports re-routed /
  /// replayed, reservations evicted), summed over all placement
  /// candidates' fixpoints.
  FlowStats flow_stats;

  double completion_time = 0.0;          ///< bioassay execution time (s)
  double utilization = 0.0;              ///< Eq. 1, in [0, 1]
  double channel_length_mm = 0.0;        ///< distinct channel length
  double total_cache_time = 0.0;         ///< Fig. 8 metric (s)
  double channel_wash_time = 0.0;        ///< Fig. 9 metric (s)
  double cpu_seconds = 0.0;              ///< wall time of the flow
  StageTimes stage_seconds;              ///< per-stage breakdown of cpu_seconds

  std::string summary() const;

  /// Every member equal, run telemetry included: true of a result and its
  /// synthesis_result_to_json round trip.
  friend bool operator==(const SynthesisResult&,
                         const SynthesisResult&) = default;
};

/// The proposed flow. Throws SchedulingError / RoutingError on infeasible
/// input. Deterministic for a fixed options.placer.seed.
SynthesisResult synthesize_dcsa(const SequencingGraph& graph,
                                const Allocation& allocation,
                                const WashModel& wash_model,
                                SynthesisOptions options = {});

/// The BA comparison flow.
SynthesisResult synthesize_baseline(const SequencingGraph& graph,
                                    const Allocation& allocation,
                                    const WashModel& wash_model,
                                    SynthesisOptions options = {});

/// Fully custom flow: every option — binding policy, storage refinement,
/// placement strategy, router weights/conflict handling — is honored
/// verbatim. This is what the ablation benches use to toggle one design
/// choice at a time; synthesize_dcsa / synthesize_baseline are presets
/// over it.
SynthesisResult synthesize_custom(const SequencingGraph& graph,
                                  const Allocation& allocation,
                                  const WashModel& wash_model,
                                  const SynthesisOptions& options);

}  // namespace fbmb
