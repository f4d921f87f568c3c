// Control-layer estimation (the paper's future-work direction, ref. [13]).
//
// The flow layer is actuated by a control layer of pneumatic valves. This
// module estimates the control cost of a routed flow layer so design
// points can be compared:
//
//  - A valve is needed on every branch of a channel junction: a cell with
//    k >= 3 distinct incident channel segments contributes k valves
//    (direction selection). Each component port stub contributes one valve
//    (opening/closing the component).
//  - Valve switching: moving a fluid along a path opens the path's valves
//    and closes them afterwards — 2 switch events per valve the task
//    passes. Wash flushes over a path toggle the same valves once more.
//
// The model intentionally stays structural (no Hamming-distance
// multiplexing optimization, which ref. [13] addresses); it is sufficient
// to compare how routing styles trade valve count (shared paths need fewer
// valves) against switching activity (shared junctions toggle more).

#pragma once

#include "route/types.hpp"

namespace fbmb {

struct ControlEstimate {
  int valve_count = 0;        ///< distinct valves on the chip
  int junction_cells = 0;     ///< cells with >= 3 incident segments
  int port_valves = 0;        ///< component-port stub valves
  long switching_count = 0;   ///< total open/close events over the assay
  double switches_per_valve = 0.0;
};

/// Estimates the control layer for a routed result. Wash flushes come
/// from each path's wash_duration.
ControlEstimate estimate_control_layer(const RoutingResult& routing);

/// Control-line multiplexing estimate (a simplified take on ref. [13]):
/// valves whose activation sets — the set of transport tasks that pass
/// them — are identical always switch together and can share one control
/// line, so the number of distinct activation sets bounds the control
/// ports needed.
struct MultiplexingEstimate {
  int valve_sites = 0;     ///< junction cells + port stubs
  int control_lines = 0;   ///< distinct activation sets
  double sharing_ratio = 1.0;  ///< valve_sites / control_lines
};

MultiplexingEstimate estimate_control_multiplexing(
    const RoutingResult& routing);

/// A concrete valve site on the chip: the cell it sits on and the set of
/// transports that actuate it (its activation set). Input to the
/// control-layer escape router.
struct ValveSite {
  Point cell;
  std::set<int> activation;   ///< transport ids that pass this valve
  bool is_port_stub = false;  ///< component-port valve vs junction valve
};

/// All valve sites of a routed result (junction cells and port stubs),
/// in deterministic order.
std::vector<ValveSite> control_valve_sites(const RoutingResult& routing);

}  // namespace fbmb
