// The from-scratch route–retime fixpoint, kept as the oracle for
// route_until_consistent (core/flow_core.hpp).
//
// Every round builds a fresh RoutingGrid and routes every transport with
// route_transports; between rounds it retimes, and at the round cap it
// retimes once more and returns one reconciliation route, exactly as the
// incremental loop does. tests/flow_equivalence_test.cpp and the fuzz
// oracle (src/testgen) assert that the two produce bit-identical
// (Schedule, RoutingResult) pairs.

#pragma once

#include <functional>

#include "core/flow_core.hpp"

namespace fbmb {

/// Same contract as route_until_consistent; bit-identical schedule and
/// routing, apart from the telemetry-only stats.
RoutingResult route_until_consistent_reference(
    Schedule& schedule, const SequencingGraph& graph,
    const Allocation& allocation, const ChipSpec& chip,
    const Placement& placement, const WashModel& wash_model,
    const RouterOptions& router_options, StageTimes& stages,
    const std::function<void(const char*)>& checkpoint,
    FlowStats* flow = nullptr);

}  // namespace fbmb
