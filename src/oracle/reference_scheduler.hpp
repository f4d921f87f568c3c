// Reference list scheduler: the original map-and-linear-scan
// implementation of Algorithm 1.
//
// `schedule_bioassay` / `replay_schedule` now run on SchedulerCore
// (schedule/scheduler_core.hpp), which keeps flat operation-indexed state
// and a binary-heap ready set. This header keeps the original
// implementation — a std::set ready queue re-balanced per operation,
// std::map share bookkeeping per producer, per-operation
// components_of_type allocations, and repeated WashModel lookups —
// verbatim as a test oracle, following the router/placer pattern
// (oracle/reference_router.hpp, oracle/reference_placer.hpp). The two are
// bit-identical by construction: tests/scheduler_equivalence_test.cpp and
// the fuzz oracle (src/testgen) assert identical Schedules per paper
// benchmark and generated scenario.
//
// The reference keeps no SchedStats (mirroring the router and placer
// references): counters are telemetry, and the oracle stays frozen.

#pragma once

#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "graph/sequencing_graph.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/types.hpp"

namespace fbmb {

/// Original binding & scheduling flow. Same contract as schedule_bioassay;
/// bit-identical output for equal inputs.
Schedule schedule_bioassay_reference(const SequencingGraph& graph,
                                     const Allocation& allocation,
                                     const WashModel& wash_model,
                                     const SchedulerOptions& options = {});

/// Original decision-replay timing engine. Same contract as
/// replay_schedule; bit-identical output for equal inputs.
Schedule replay_schedule_reference(
    const SequencingGraph& graph, const Allocation& allocation,
    const WashModel& wash_model, const SchedulerOptions& options,
    const std::vector<ScheduleDecision>& decisions);

}  // namespace fbmb
