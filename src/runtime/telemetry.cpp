#include "runtime/telemetry.hpp"

#include <cstdio>
#include <sstream>

namespace fbmb {

namespace {

std::string number(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void Telemetry::record_stage_times(const StageTimes& stages) {
  add(stage_schedule_, stages.schedule);
  add(stage_refine_, stages.refine);
  add(stage_place_, stages.place);
  add(stage_grid_build_, stages.grid_build);
  add(stage_route_, stages.route);
  add(stage_retime_, stages.retime);
}

void Telemetry::record_route_stats(const RouteStats& stats) {
  route_tasks_routed_.fetch_add(stats.tasks_routed);
  route_nodes_expanded_.fetch_add(stats.nodes_expanded);
  route_heap_pushes_.fetch_add(stats.heap_pushes);
  route_feasibility_rejections_.fetch_add(stats.feasibility_rejections);
  route_postponement_steps_.fetch_add(stats.postponement_steps);
  route_distance_fields_built_.fetch_add(stats.distance_fields_built);
  route_fixpoints_capped_.fetch_add(stats.fixpoints_capped);
}

void Telemetry::record_flow_stats(const FlowStats& stats) {
  flow_rounds_.fetch_add(stats.rounds);
  flow_transports_rerouted_.fetch_add(stats.transports_rerouted);
  flow_transports_reused_.fetch_add(stats.transports_reused);
  flow_cells_evicted_.fetch_add(stats.cells_evicted);
}

void Telemetry::record_place_stats(const PlaceStats& stats) {
  place_proposals_.fetch_add(stats.proposals);
  place_accepts_.fetch_add(stats.accepts);
  place_delta_evals_.fetch_add(stats.delta_evals);
  place_full_evals_.fetch_add(stats.full_evals);
  place_occupancy_probes_.fetch_add(stats.occupancy_probes);
}

void Telemetry::record_sched_stats(const SchedStats& stats) {
  sched_ops_scheduled_.fetch_add(stats.ops_scheduled);
  sched_heap_pushes_.fetch_add(stats.heap_pushes);
  sched_heap_pops_.fetch_add(stats.heap_pops);
  sched_binding_probes_.fetch_add(stats.binding_probes);
  sched_case1_bindings_.fetch_add(stats.case1_bindings);
  sched_case2_bindings_.fetch_add(stats.case2_bindings);
}

void Telemetry::record_queue_depth(std::uint64_t depth) {
  std::uint64_t current = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > current &&
         !max_queue_depth_.compare_exchange_weak(current, depth)) {
  }
}

Telemetry::Snapshot Telemetry::snapshot() const {
  Snapshot s;
  s.stage_seconds.schedule = stage_schedule_.load();
  s.stage_seconds.refine = stage_refine_.load();
  s.stage_seconds.place = stage_place_.load();
  s.stage_seconds.grid_build = stage_grid_build_.load();
  s.stage_seconds.route = stage_route_.load();
  s.stage_seconds.retime = stage_retime_.load();
  s.synthesis_seconds = synthesis_seconds_.load();
  s.cache_hits = cache_hits_.load();
  s.cache_misses = cache_misses_.load();
  s.jobs_submitted = jobs_submitted_.load();
  s.jobs_completed = jobs_completed_.load();
  s.jobs_cancelled = jobs_cancelled_.load();
  s.jobs_in_flight = jobs_in_flight_.load();
  s.max_queue_depth = max_queue_depth_.load();
  s.routing.tasks_routed = route_tasks_routed_.load();
  s.routing.nodes_expanded = route_nodes_expanded_.load();
  s.routing.heap_pushes = route_heap_pushes_.load();
  s.routing.feasibility_rejections = route_feasibility_rejections_.load();
  s.routing.postponement_steps = route_postponement_steps_.load();
  s.routing.distance_fields_built = route_distance_fields_built_.load();
  s.routing.fixpoints_capped = route_fixpoints_capped_.load();
  s.flow.rounds = flow_rounds_.load();
  s.flow.transports_rerouted = flow_transports_rerouted_.load();
  s.flow.transports_reused = flow_transports_reused_.load();
  s.flow.cells_evicted = flow_cells_evicted_.load();
  s.placement.proposals = place_proposals_.load();
  s.placement.accepts = place_accepts_.load();
  s.placement.delta_evals = place_delta_evals_.load();
  s.placement.full_evals = place_full_evals_.load();
  s.placement.occupancy_probes = place_occupancy_probes_.load();
  s.scheduling.ops_scheduled = sched_ops_scheduled_.load();
  s.scheduling.heap_pushes = sched_heap_pushes_.load();
  s.scheduling.heap_pops = sched_heap_pops_.load();
  s.scheduling.binding_probes = sched_binding_probes_.load();
  s.scheduling.case1_bindings = sched_case1_bindings_.load();
  s.scheduling.case2_bindings = sched_case2_bindings_.load();
  return s;
}

void Telemetry::reset() {
  stage_schedule_.store(0.0);
  stage_refine_.store(0.0);
  stage_place_.store(0.0);
  stage_grid_build_.store(0.0);
  stage_route_.store(0.0);
  stage_retime_.store(0.0);
  synthesis_seconds_.store(0.0);
  cache_hits_.store(0);
  cache_misses_.store(0);
  jobs_submitted_.store(0);
  jobs_completed_.store(0);
  jobs_cancelled_.store(0);
  jobs_in_flight_.store(0);
  max_queue_depth_.store(0);
  route_tasks_routed_.store(0);
  route_nodes_expanded_.store(0);
  route_heap_pushes_.store(0);
  route_feasibility_rejections_.store(0);
  route_postponement_steps_.store(0);
  route_distance_fields_built_.store(0);
  route_fixpoints_capped_.store(0);
  flow_rounds_.store(0);
  flow_transports_rerouted_.store(0);
  flow_transports_reused_.store(0);
  flow_cells_evicted_.store(0);
  place_proposals_.store(0);
  place_accepts_.store(0);
  place_delta_evals_.store(0);
  place_full_evals_.store(0);
  place_occupancy_probes_.store(0);
  sched_ops_scheduled_.store(0);
  sched_heap_pushes_.store(0);
  sched_heap_pops_.store(0);
  sched_binding_probes_.store(0);
  sched_case1_bindings_.store(0);
  sched_case2_bindings_.store(0);
}

std::string Telemetry::to_json(const Snapshot& s) {
  std::ostringstream os;
  os << "{\"stages\": {\"schedule\": " << number(s.stage_seconds.schedule)
     << ", \"refine\": " << number(s.stage_seconds.refine)
     << ", \"place\": " << number(s.stage_seconds.place)
     << ", \"grid_build\": " << number(s.stage_seconds.grid_build)
     << ", \"route\": " << number(s.stage_seconds.route)
     << ", \"retime\": " << number(s.stage_seconds.retime)
     << ", \"total\": " << number(s.stage_seconds.total())
     << "}, \"cache\": {\"hits\": " << s.cache_hits
     << ", \"misses\": " << s.cache_misses
     << "}, \"jobs\": {\"submitted\": " << s.jobs_submitted
     << ", \"completed\": " << s.jobs_completed
     << ", \"cancelled\": " << s.jobs_cancelled
     << ", \"in_flight\": " << s.jobs_in_flight
     << "}, \"routing\": {\"tasks_routed\": " << s.routing.tasks_routed
     << ", \"nodes_expanded\": " << s.routing.nodes_expanded
     << ", \"heap_pushes\": " << s.routing.heap_pushes
     << ", \"feasibility_rejections\": " << s.routing.feasibility_rejections
     << ", \"postponement_steps\": " << s.routing.postponement_steps
     << ", \"distance_fields_built\": " << s.routing.distance_fields_built
     << ", \"fixpoints_capped\": " << s.routing.fixpoints_capped
     << "}, \"flow\": {\"rounds\": " << s.flow.rounds
     << ", \"transports_rerouted\": " << s.flow.transports_rerouted
     << ", \"transports_reused\": " << s.flow.transports_reused
     << ", \"cells_evicted\": " << s.flow.cells_evicted
     << "}, \"placement\": {\"proposals\": " << s.placement.proposals
     << ", \"accepts\": " << s.placement.accepts
     << ", \"delta_evals\": " << s.placement.delta_evals
     << ", \"full_evals\": " << s.placement.full_evals
     << ", \"occupancy_probes\": " << s.placement.occupancy_probes
     << "}, \"scheduling\": {\"ops_scheduled\": " << s.scheduling.ops_scheduled
     << ", \"heap_pushes\": " << s.scheduling.heap_pushes
     << ", \"heap_pops\": " << s.scheduling.heap_pops
     << ", \"binding_probes\": " << s.scheduling.binding_probes
     << ", \"case1_bindings\": " << s.scheduling.case1_bindings
     << ", \"case2_bindings\": " << s.scheduling.case2_bindings
     << "}, \"max_queue_depth\": " << s.max_queue_depth
     << ", \"synthesis_seconds\": " << number(s.synthesis_seconds) << "}";
  return os.str();
}

}  // namespace fbmb
