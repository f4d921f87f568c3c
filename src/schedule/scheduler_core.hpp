// Flat-array list-scheduler core (Algorithm 1).
//
// SchedulerCore re-implements the extended list scheduler's inner loop on
// dense operation-, edge-, and component-indexed state:
//
// - The ready set is an in-place binary heap of operation ids ordered by
//   (priority desc, id asc) — the same total order the reference's
//   std::set maintains, so the pop sequence is identical while each
//   push/pop costs O(log n) on a contiguous vector instead of a
//   node-based rebalance.
// - Fluid shares live in a CSR edge array (one slot per sequencing-graph
//   out-edge, in children order): location, channel-entry time, and
//   departure deadline are parallel flat vectors, replacing one std::map
//   per producer. A precomputed parent→edge cross-reference makes every
//   share lookup during start-time computation and transport emission
//   O(1).
// - Case I membership ("is this component's resident fluid a parent of
//   the op being bound?") is answered by a per-binding stamp array
//   instead of a std::find over the parent list, and Case II iterates a
//   per-type candidate component list built once from the allocation
//   instead of allocating a fresh components_of_type vector per
//   operation.
// - Per-operation wash times (Eq. 2's wash(prev) term) and output
//   diffusion coefficients are memoized up front, replacing repeated
//   WashModel map lookups in the hot loop.
//
// The result is bit-identical to the original implementation, which is
// kept verbatim in oracle/reference_scheduler.hpp as the oracle:
// tests/scheduler_equivalence_test.cpp and bench/sched_perf assert
// identical Schedules (operations, transports, washes, completion) on
// every paper benchmark.
//
// SchedStats counts the core's search effort (heap traffic, binding
// probes, Case I/II decisions) for the runtime telemetry layer; the
// counters never influence the schedule.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "graph/sequencing_graph.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/types.hpp"
#include "util/fields.hpp"

namespace fbmb {

/// Search-effort counters for one scheduling pass. Telemetry-only: two
/// Schedules are considered equivalent regardless of their stats.
struct SchedStats {
  std::uint64_t ops_scheduled = 0;   ///< operations bound & timed
  std::uint64_t heap_pushes = 0;     ///< ready-heap insertions
  std::uint64_t heap_pops = 0;       ///< ready-heap removals
  std::uint64_t binding_probes = 0;  ///< per-component availability probes
  std::uint64_t case1_bindings = 0;  ///< Case I in-place bindings
  std::uint64_t case2_bindings = 0;  ///< Case II / BA earliest-ready picks

  /// Every counter above, as {JSON key, member} (util/fields.hpp).
  static constexpr Field<SchedStats, std::uint64_t> kFields[] = {
      {"ops_scheduled", &SchedStats::ops_scheduled},
      {"heap_pushes", &SchedStats::heap_pushes},
      {"heap_pops", &SchedStats::heap_pops},
      {"binding_probes", &SchedStats::binding_probes},
      {"case1_bindings", &SchedStats::case1_bindings},
      {"case2_bindings", &SchedStats::case2_bindings},
  };

  SchedStats& operator+=(const SchedStats& o) { return add_fields(*this, o); }
};

/// One scheduling pass over a fixed (graph, allocation, wash model,
/// options) tuple. The constructor precomputes the flat state; run() or
/// run_replay() may then be called exactly once per instance.
class SchedulerCore {
 public:
  SchedulerCore(const SequencingGraph& graph, const Allocation& allocation,
                const WashModel& wash_model, const SchedulerOptions& options);

  /// Algorithm 1: priority-ordered binding & scheduling. Bit-identical to
  /// schedule_bioassay_reference. If `stats` is non-null the pass's
  /// search counters are accumulated into it.
  Schedule run(SchedStats* stats = nullptr);

  /// Replays an explicit decision sequence through the same timing engine
  /// (see replay_schedule). Bit-identical to replay_schedule_reference.
  Schedule run_replay(const std::vector<ScheduleDecision>& decisions,
                      SchedStats* stats = nullptr);

 private:
  /// Location of a fluid share (one per out-edge); the reference's
  /// ShareLocation state machine on a flat byte.
  enum class Location : std::uint8_t { kComponent, kChannel, kConsumed };

  void check_feasibility() const;
  void build_flat_state();

  /// Availability of component `c` for operation `oid` (whose parents
  /// are stamped), plus the parent consumable in place there (-1 if
  /// none).
  std::pair<double, int> availability(int c, int oid);

  void push_ready(int op);
  int pop_ready();

  void schedule_operation(OperationId oid, ComponentId forced);

  const SequencingGraph& graph_;
  const Allocation& allocation_;
  const WashModel& wash_;
  SchedulerOptions opts_;
  Schedule schedule_;
  SchedStats counters_;

  // --- Immutable flat state, built once per instance ---------------------
  /// CSR over out-edges in graph children order: edges of operation `o`
  /// are [edge_begin_[o], edge_begin_[o + 1]).
  std::vector<int> edge_begin_;
  std::vector<int> edge_consumer_;  ///< consumer op id per edge
  /// Edge id of (parents(o)[k] -> o), aligned with the graph's parent
  /// order; CSR offsets in parent_begin_.
  std::vector<int> parent_begin_;
  std::vector<int> parent_edge_;
  std::vector<double> op_duration_;  ///< execution times
  std::vector<double> op_wash_;      ///< wash(out(o)), memoized
  std::vector<double> op_diffusion_; ///< out(o).diffusion_coefficient
  std::vector<ComponentType> op_type_;
  /// Qualified components per type, in allocation order (the same order
  /// Allocation::components_of_type returns).
  std::array<std::vector<int>, kComponentTypeCount> candidates_;

  // --- Mutable per-pass state --------------------------------------------
  std::vector<Location> edge_location_;
  std::vector<double> edge_since_;     ///< kChannel: eager eviction point
  std::vector<double> edge_deadline_;  ///< latest legal departure
  std::vector<int> op_component_;      ///< binding, -1 while unscheduled
  std::vector<double> op_end_;
  std::vector<int> comp_resident_;     ///< op whose output occupies it, -1
  std::vector<std::uint8_t> comp_has_residue_;
  std::vector<double> comp_vacate_;    ///< latest time residue is present
  std::vector<double> comp_ready_;     ///< t_ready(c) (Eq. 2)
  /// Stamps parents of the operation being bound: mark_stamp_[p] == the
  /// op id makes "is p a parent?" and the (p -> op) edge lookup O(1).
  std::vector<int> mark_stamp_;
  std::vector<int> mark_edge_;

  // --- Ready heap --------------------------------------------------------
  std::vector<double> priority_;
  std::vector<int> heap_;
};

}  // namespace fbmb
