// Scheduling results: bound operations, transport/cache tasks, wash events.
//
// A Schedule is the output of the binding-and-scheduling stage (Section
// IV-A) and the input of placement & routing. It fixes, for every operation,
// the executing component and the [start, end) execution window; for every
// fluidic dependency whose endpoints sit on different components, a
// TransportTask records when the fluid leaves its source component
// (departure), how long it moves (transport_time = t_c), and when the
// consumer finally ingests it (consume). Any gap between arrival
// (departure + t_c) and consume is spent cached inside flow channels — the
// distributed channel storage the paper is about.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "biochip/component.hpp"
#include "biochip/fluid.hpp"
#include "graph/sequencing_graph.hpp"

namespace fbmb {

/// One operation bound to a component with fixed timing.
struct ScheduledOperation {
  OperationId op;
  ComponentId component;
  double start = 0.0;
  double end = 0.0;
  /// Set when one input fluid was consumed in place (Case I): the parent
  /// whose output was already resident in `component`, so no transport and
  /// no wash was needed for that input.
  OperationId in_place_parent = kNoOperation;

  double duration() const { return end - start; }
  bool consumed_in_place() const { return in_place_parent.valid(); }

  friend bool operator==(const ScheduledOperation&,
                         const ScheduledOperation&) = default;
};

/// Movement of out(producer) from the producer's component to the
/// consumer's component, including any channel-cache dwell.
struct TransportTask {
  int id = -1;
  OperationId producer;
  OperationId consumer;
  ComponentId from;
  ComponentId to;
  Fluid fluid;                  ///< the fluid being moved (out(producer))
  double departure = 0.0;       ///< leaves the source component
  double transport_time = 0.0;  ///< t_c
  double consume = 0.0;         ///< consumer ingests the fluid (its start)
  /// True when the fluid was forced out of its component early because the
  /// component was reallocated (eviction into channel storage).
  bool evicted = false;
  /// Latest legal departure (set at eviction time): departing later would
  /// collide with the reallocated component's wash/next operation. Storage
  /// refinement postpones `departure` up to min(deadline, consume - t_c).
  double departure_deadline = 0.0;

  double arrival() const { return departure + transport_time; }
  /// Time the fluid sits parked in flow channels (Fig. 8 metric).
  double cache_time() const {
    const double dwell = consume - arrival();
    return dwell > 0.0 ? dwell : 0.0;
  }

  friend bool operator==(const TransportTask&, const TransportTask&) = default;
};

/// A component wash: buffer flush removing `residue` before reuse (Eq. 2).
struct ComponentWash {
  ComponentId component;
  OperationId residue_of;  ///< operation whose output left the residue
  Fluid residue;
  double start = 0.0;
  double end = 0.0;

  double duration() const { return end - start; }

  friend bool operator==(const ComponentWash&, const ComponentWash&) = default;
};

/// Complete binding & scheduling result.
struct Schedule {
  /// Indexed by OperationId::value; every graph operation appears once.
  std::vector<ScheduledOperation> operations;
  std::vector<TransportTask> transports;
  std::vector<ComponentWash> component_washes;
  double completion_time = 0.0;
  double transport_time = 2.0;  ///< the t_c this schedule assumed

  const ScheduledOperation& at(OperationId id) const {
    return operations.at(static_cast<std::size_t>(id.value));
  }
  ScheduledOperation& at(OperationId id) {
    return operations.at(static_cast<std::size_t>(id.value));
  }

  /// Scheduled operations bound to `c`, ordered by start time.
  std::vector<ScheduledOperation> operations_on(ComponentId c) const;

  /// Sum of channel cache times over all transports (Fig. 8 metric).
  double total_cache_time() const;

  /// Sum of component wash durations.
  double total_component_wash_time() const;

  /// Human-readable timeline (one line per operation/transport).
  std::string to_string(const SequencingGraph& graph) const;

  /// Every member equal, doubles exactly (no tolerance): the equivalence
  /// the core-vs-reference oracle and tests assert.
  friend bool operator==(const Schedule&, const Schedule&) = default;
};

}  // namespace fbmb
