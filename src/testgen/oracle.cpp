#include "testgen/oracle.hpp"

#include <cmath>
#include <optional>
#include <utility>

#include "core/flow_core.hpp"
#include "core/synthesis.hpp"
#include "oracle/reference_flow.hpp"
#include "oracle/reference_placer.hpp"
#include "oracle/reference_router.hpp"
#include "oracle/reference_scheduler.hpp"
#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"
#include "route/grid.hpp"
#include "route/router.hpp"
#include "route/validator.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/validator.hpp"
#include "sim/chip_simulator.hpp"

namespace fbmb {

namespace {

/// One side of a differential pair: either a value or the error it threw.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;
};

/// Runs `fn`, capturing the value or the what() of a scheduling/routing
/// failure. Anything else (logic_error, bad_alloc) propagates: those are
/// harness bugs, not scenario outcomes.
template <typename Fn>
auto capture(Fn&& fn) -> Outcome<decltype(fn())> {
  Outcome<decltype(fn())> outcome;
  try {
    outcome.value = fn();
  } catch (const SchedulingError& e) {
    outcome.error = std::string("SchedulingError: ") + e.what();
  } catch (const RoutingError& e) {
    outcome.error = std::string("RoutingError: ") + e.what();
  }
  return outcome;
}

/// Compares the error sides of a pair. Returns true when both sides
/// produced values and the caller should compare them.
template <typename T>
bool errors_agree(const char* stage, const Outcome<T>& core,
                  const Outcome<T>& reference, OracleReport& report) {
  if (core.value && reference.value) return true;
  if (!core.value && !reference.value) {
    if (core.error != reference.error) {
      report.fail(std::string(stage) + ": core failed with '" + core.error +
                  "' but reference failed with '" + reference.error + "'");
    }
    return false;
  }
  if (!core.value) {
    report.fail(std::string(stage) + ": core failed ('" + core.error +
                "') but reference succeeded");
  } else {
    report.fail(std::string(stage) + ": reference failed ('" +
                reference.error + "') but core succeeded");
  }
  return false;
}

/// kScheduleOffByOne: shift the first >=2-parent operation by one second.
/// Returns false when the fault has no anchor in this scenario.
bool inject_schedule_fault(const SequencingGraph& graph, Schedule& schedule) {
  for (const auto& op : graph.operations()) {
    if (graph.parents(op.id).size() >= 2) {
      schedule.at(op.id).start += 1.0;
      schedule.at(op.id).end += 1.0;
      return true;
    }
  }
  return false;
}

/// kRouteDelayOffByOne: bump the first nonzero delay (or delay slot 0) by
/// one postpone step. Returns false when the schedule has no transports.
bool inject_route_fault(RoutingResult& routing) {
  if (routing.delays.empty()) return false;
  for (double& delay : routing.delays) {
    if (delay > 0.0) {
      delay += kPostponeStep;
      return true;
    }
  }
  routing.delays.front() += kPostponeStep;
  return true;
}

struct FlowRun {
  Schedule schedule;
  RoutingResult routing;
  FlowStats flow;
};

}  // namespace

OracleReport run_differential_oracle(const Scenario& scenario,
                                     const OracleOptions& options) {
  OracleReport report;
  report.operations = scenario.graph.operation_count();

  if (const auto err = scenario.graph.validate()) {
    report.fail("scenario: invalid graph: " + *err);
    return report;
  }

  const Allocation allocation(scenario.allocation);
  ChipSpec chip = scenario.chip;
  if (!chip.has_fixed_grid()) {
    chip = derive_grid(chip,
                       allocation_area(allocation, chip.component_spacing));
  }

  SchedulerOptions sched_options;
  sched_options.transport_time = chip.transport_time;
  sched_options.policy = scenario.knobs.policy;
  sched_options.refine_storage = scenario.knobs.refine_storage;

  PlacerOptions placer_options;
  placer_options.seed = scenario.knobs.placer_seed;
  placer_options.restarts = scenario.knobs.placer_restarts;
  placer_options.sa.iterations_per_temperature =
      scenario.knobs.sa_iterations;

  RouterOptions router_options;
  router_options.wash_aware_weights = scenario.knobs.wash_aware_weights;
  router_options.conflict_aware = scenario.knobs.conflict_aware;
  router_options.order = scenario.knobs.route_order;

  // ---- Pair 1: list scheduler. ----
  auto core_schedule = capture([&] {
    return schedule_bioassay(scenario.graph, allocation, scenario.wash,
                             sched_options);
  });
  auto ref_schedule = capture([&] {
    return schedule_bioassay_reference(scenario.graph, allocation,
                                       scenario.wash, sched_options);
  });
  if (!errors_agree("scheduler", core_schedule, ref_schedule, report)) {
    // Identical failures mean the whole scenario is infeasible for both
    // implementations — a degenerate pass with nothing left to compare.
    report.degenerate = report.ok;
    return report;
  }
  if (options.inject == FaultInjection::kScheduleOffByOne) {
    inject_schedule_fault(scenario.graph, *core_schedule.value);
  }
  if (*core_schedule.value != *ref_schedule.value) {
    report.fail("scheduler: core and reference schedules diverge");
    return report;
  }
  for (const std::string& v :
       validate_schedule(*core_schedule.value, scenario.graph, allocation,
                         scenario.wash)) {
    report.fail("schedule validator: " + v);
  }
  if (!report.ok) return report;
  const Schedule& schedule = *core_schedule.value;
  report.transports = schedule.transports.size();

  // ---- Pair 2: SA placer. ----
  auto core_place = capture([&] {
    return place_components(allocation, schedule, scenario.wash, chip,
                            placer_options);
  });
  auto ref_place = capture([&] {
    return place_components_reference(allocation, schedule, scenario.wash,
                                      chip, placer_options);
  });
  if (!errors_agree("placer", core_place, ref_place, report)) return report;
  if (*core_place.value != *ref_place.value) {
    report.fail("placer: core and reference placements diverge");
    return report;
  }
  if (!core_place.value->is_legal(allocation, chip)) {
    report.fail("placement validator: placement is not legal");
    return report;
  }
  const Placement& placement = *core_place.value;

  // ---- Pair 2b: BA's construction-by-correction placer. The flow below
  // routes the SA placement; this pair checks placement only. ----
  auto core_baseline = capture([&] {
    return place_components_baseline(allocation, schedule, chip);
  });
  auto ref_baseline = capture([&] {
    return place_components_baseline_reference(allocation, schedule, chip);
  });
  if (!errors_agree("baseline placer", core_baseline, ref_baseline, report)) {
    return report;
  }
  if (*core_baseline.value != *ref_baseline.value) {
    report.fail("baseline placer: core and reference placements diverge");
    return report;
  }
  if (!core_baseline.value->is_legal(allocation, chip)) {
    report.fail("baseline placement validator: placement is not legal");
    return report;
  }

  // ---- Pair 3: single-pass router. ----
  auto core_route = capture([&] {
    RoutingGrid grid(chip, allocation, placement);
    return route_transports(grid, schedule, scenario.wash, router_options);
  });
  auto ref_route = capture([&] {
    RoutingGrid grid(chip, allocation, placement);
    return route_transports_reference(grid, schedule, scenario.wash,
                                      router_options);
  });
  if (!errors_agree("router", core_route, ref_route, report)) return report;
  if (options.inject == FaultInjection::kRouteDelayOffByOne) {
    inject_route_fault(*core_route.value);
  }
  if (!identical_routing(*core_route.value, *ref_route.value)) {
    report.fail("router: core and reference routing results diverge");
    return report;
  }

  // ---- Pair 4: route-retime fixpoint. ----
  auto core_flow = capture([&] {
    FlowRun run;
    run.schedule = schedule;
    StageTimes stages;
    run.routing = route_until_consistent(
        run.schedule, scenario.graph, allocation, chip, placement,
        scenario.wash, router_options, stages, {}, &run.flow);
    return run;
  });
  auto ref_flow = capture([&] {
    FlowRun run;
    run.schedule = schedule;
    StageTimes stages;
    run.routing = route_until_consistent_reference(
        run.schedule, scenario.graph, allocation, chip, placement,
        scenario.wash, router_options, stages, {}, &run.flow);
    return run;
  });
  if (!errors_agree("fixpoint", core_flow, ref_flow, report)) return report;
  if (core_flow.value->schedule != ref_flow.value->schedule) {
    report.fail("fixpoint: retimed schedules diverge");
  }
  if (!identical_routing(core_flow.value->routing,
                         ref_flow.value->routing)) {
    report.fail("fixpoint: routing results diverge");
  }
  if (!report.ok) return report;
  report.fixpoint_rounds = core_flow.value->flow.rounds;
  // The fixpoint converged iff its final round produced no delays (the
  // convergent exit returns an all-zero delay vector; only the round-cap
  // path returns pending ones).
  for (const double delay : core_flow.value->routing.delays) {
    if (delay > 0.0) report.fixpoint_converged = false;
  }

  // ---- Invariant layers on the final (retimed) result. ----
  const Schedule& final_schedule = core_flow.value->schedule;
  const RoutingResult& final_routing = core_flow.value->routing;
  {
    const RoutingGrid fresh(chip, allocation, placement);
    for (const std::string& v : validate_routing(final_routing,
                                                 final_schedule, fresh,
                                                 scenario.wash)) {
      report.fail("routing validator: " + v);
    }
  }
  for (const std::string& v :
       validate_schedule(final_schedule, scenario.graph, allocation,
                         scenario.wash)) {
    report.fail("schedule validator (retimed): " + v);
  }
  if (options.run_simulator && report.fixpoint_converged) {
    SynthesisResult result;
    result.schedule = final_schedule;
    result.placement = placement;
    result.routing = final_routing;
    result.chip = chip;
    result.completion_time = final_schedule.completion_time;
    const SimResult sim =
        simulate_chip(scenario.graph, allocation, scenario.wash, result);
    for (const std::string& v : sim.violations) {
      report.fail("chip simulator: " + v);
    }
    if (sim.ok && std::abs(sim.stats.completion_time -
                           final_schedule.completion_time) > 1e-6) {
      report.fail("chip simulator: ground-truth completion time disagrees "
                  "with the schedule");
    }
  }
  return report;
}

}  // namespace fbmb
