// Reference implementation of the conflict-aware router.
//
// This is the original map-based A* router (std::unordered_map open/closed
// bookkeeping, per-expansion Manhattan scans) kept verbatim as a testing
// oracle for the optimized flat-array core (route/router_core.hpp) that
// route_transports runs. It is O(n) per heuristic evaluation and allocates
// per task, so nothing in the synthesis flow calls it — its callers are
// the equivalence tests (tests/router_equivalence_test.cpp) and the fuzz
// oracle (src/testgen), which assert that route_transports produces
// bit-identical RoutingResults.
//
// Semantics are identical to route_transports (including the RoutingError
// thrown on an internal occupancy conflict); only RoutingResult::stats is
// left empty — the reference does not count search effort.

#pragma once

#include "route/router.hpp"

namespace fbmb {

/// Routes `schedule` exactly like route_transports, with the original
/// map-based search. Test/bench oracle only.
RoutingResult route_transports_reference(RoutingGrid& grid,
                                         const Schedule& schedule,
                                         const WashModel& wash_model,
                                         const RouterOptions& options = {});

}  // namespace fbmb
