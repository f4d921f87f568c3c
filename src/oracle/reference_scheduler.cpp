// The original Algorithm 1 implementation, kept verbatim as the oracle for
// SchedulerCore (see reference_scheduler.hpp). Do not optimize this file:
// its value is that it stays exactly what the core is measured against.

#include "oracle/reference_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "graph/graph_algorithms.hpp"
#include "util/logging.hpp"

namespace fbmb {

namespace {

/// Where a produced fluid share (one per out-edge) currently is.
enum class ShareLocation {
  kComponent,  ///< still inside the producing component
  kChannel,    ///< evicted into flow-channel storage
  kConsumed,   ///< delivered to (or consumed by) its consumer
};

struct Share {
  ShareLocation location = ShareLocation::kComponent;
  /// kChannel: time the share left the component (eager eviction point).
  double channel_since = 0.0;
  /// Latest legal departure (refinement may postpone up to this).
  double departure_deadline = std::numeric_limits<double>::infinity();
};

/// Bookkeeping for a scheduled producer operation.
struct OpRecord {
  ComponentId component;
  double end = 0.0;
  std::map<int, Share> shares;  ///< keyed by consumer OperationId::value
};

/// Live state of one allocated component during scheduling.
struct CompState {
  OperationId resident = kNoOperation;  ///< op whose output occupies it
  bool has_residue = false;
  double vacate = 0.0;  ///< latest time residue fluid is present
  double ready = 0.0;   ///< t_ready(c): vacate + wash(residue) (Eq. 2)
};

/// Priority-queue ordering: higher priority first, then smaller id
/// (determinism).
struct ReadyOrder {
  bool operator()(const std::pair<double, int>& a,
                  const std::pair<double, int>& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }
};

class Scheduler {
 public:
  Scheduler(const SequencingGraph& graph, const Allocation& allocation,
            const WashModel& wash_model, const SchedulerOptions& options)
      : graph_(graph),
        allocation_(allocation),
        wash_(wash_model),
        opts_(options) {}

  Schedule run() {
    check_feasibility();
    const auto priorities =
        longest_path_to_sink(graph_, opts_.transport_time);

    schedule_.operations.resize(graph_.operation_count());
    schedule_.transport_time = opts_.transport_time;
    records_.resize(graph_.operation_count());
    comp_states_.resize(allocation_.size());

    // Seed the ready queue with source operations.
    std::vector<int> unscheduled_parents(graph_.operation_count(), 0);
    std::set<std::pair<double, int>, ReadyOrder> ready;
    for (const auto& op : graph_.operations()) {
      unscheduled_parents[static_cast<std::size_t>(op.id.value)] =
          static_cast<int>(graph_.parents(op.id).size());
      if (graph_.parents(op.id).empty()) {
        ready.insert({priorities[static_cast<std::size_t>(op.id.value)],
                      op.id.value});
      }
    }

    while (!ready.empty()) {
      const OperationId oid{ready.begin()->second};
      ready.erase(ready.begin());
      schedule_operation(oid);
      for (OperationId child : graph_.children(oid)) {
        if (--unscheduled_parents[static_cast<std::size_t>(child.value)] ==
            0) {
          ready.insert({priorities[static_cast<std::size_t>(child.value)],
                        child.value});
        }
      }
    }

    schedule_.completion_time = 0.0;
    for (const auto& so : schedule_.operations) {
      schedule_.completion_time = std::max(schedule_.completion_time, so.end);
    }
    if (opts_.refine_storage) refine_channel_storage(schedule_);
    return std::move(schedule_);
  }

  Schedule run_replay(const std::vector<ScheduleDecision>& decisions) {
    check_feasibility();
    schedule_.operations.resize(graph_.operation_count());
    schedule_.transport_time = opts_.transport_time;
    records_.resize(graph_.operation_count());
    comp_states_.resize(allocation_.size());

    std::vector<bool> done(graph_.operation_count(), false);
    for (const ScheduleDecision& decision : decisions) {
      const int idx = decision.op.value;
      if (idx < 0 || idx >= static_cast<int>(graph_.operation_count()) ||
          done[static_cast<std::size_t>(idx)]) {
        throw SchedulingError("replay: invalid or repeated operation");
      }
      for (OperationId parent : graph_.parents(decision.op)) {
        if (!done[static_cast<std::size_t>(parent.value)]) {
          throw SchedulingError("replay: operation decided before parent");
        }
      }
      if (!decision.component.valid() ||
          static_cast<std::size_t>(decision.component.value) >=
              allocation_.size() ||
          allocation_.component(decision.component).type !=
              graph_.operation(decision.op).type) {
        throw SchedulingError("replay: non-qualified component");
      }
      schedule_operation(decision.op, decision.component);
      done[static_cast<std::size_t>(idx)] = true;
    }

    schedule_.completion_time = 0.0;
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (done[i]) {
        schedule_.completion_time =
            std::max(schedule_.completion_time, schedule_.operations[i].end);
      }
    }
    if (opts_.refine_storage) refine_channel_storage(schedule_);
    return std::move(schedule_);
  }

 private:
  void check_feasibility() {
    if (auto err = graph_.validate()) {
      throw SchedulingError("invalid sequencing graph: " + *err);
    }
    const auto histogram = operation_type_histogram(graph_);
    for (ComponentType type : kAllComponentTypes) {
      const auto idx = static_cast<std::size_t>(type);
      if (histogram[idx] > 0 && !allocation_.has_type(type)) {
        throw SchedulingError(
            std::string("no qualified component allocated for type ") +
            component_type_name(type));
      }
    }
  }

  CompState& state(ComponentId c) {
    return comp_states_[static_cast<std::size_t>(c.value)];
  }
  OpRecord& record(OperationId o) {
    return records_[static_cast<std::size_t>(o.value)];
  }

  double wash_of(OperationId producer) {
    return wash_.wash_time(graph_.operation(producer).output);
  }

  /// Same-type parents whose output fluid still sits in the component that
  /// produced it (the paper's O_s' set).
  std::vector<OperationId> resident_same_type_parents(OperationId oid) {
    std::vector<OperationId> out;
    const ComponentType type = graph_.operation(oid).type;
    for (OperationId p : graph_.parents(oid)) {
      if (graph_.operation(p).type != type) continue;
      const OpRecord& rec = record(p);
      const auto it = rec.shares.find(oid.value);
      assert(it != rec.shares.end());
      if (it->second.location == ShareLocation::kComponent &&
          state(rec.component).resident == p) {
        out.push_back(p);
      }
    }
    return out;
  }

  /// Case I: parent component whose resident fluid has the lowest diffusion
  /// coefficient (longest wash avoided). Returns kNoOperation if O_s' empty.
  OperationId pick_case1_parent(const std::vector<OperationId>& candidates) {
    OperationId best = kNoOperation;
    double best_d = std::numeric_limits<double>::infinity();
    for (OperationId p : candidates) {
      const double d = graph_.operation(p).output.diffusion_coefficient;
      if (d < best_d || (d == best_d && p.value < best.value)) {
        best_d = d;
        best = p;
      }
    }
    return best;
  }

  /// Availability of component `c` for operation `oid`, plus the parent
  /// that could be consumed in place there (if any).
  std::pair<double, OperationId> availability(ComponentId c,
                                              OperationId oid) {
    const CompState& cs = state(c);
    if (cs.has_residue && cs.resident.valid()) {
      // Is the resident fluid a parent of oid with its share still here?
      const auto& parents = graph_.parents(oid);
      if (std::find(parents.begin(), parents.end(), cs.resident) !=
          parents.end()) {
        const OpRecord& rec = record(cs.resident);
        const auto it = rec.shares.find(oid.value);
        if (it != rec.shares.end() &&
            it->second.location == ShareLocation::kComponent) {
          // In-place consumption: available right after the parent ends,
          // no wash (the residue is an input, not a contaminant).
          return {rec.end, cs.resident};
        }
      }
    }
    return {cs.ready, kNoOperation};
  }

  /// Case II / baseline: earliest-ready qualified component.
  std::pair<ComponentId, OperationId> pick_earliest_ready(OperationId oid) {
    const auto candidates =
        allocation_.components_of_type(graph_.operation(oid).type);
    assert(!candidates.empty());
    ComponentId best = kNoComponent;
    OperationId best_in_place = kNoOperation;
    double best_avail = std::numeric_limits<double>::infinity();
    for (ComponentId c : candidates) {
      const auto [avail, in_place] = availability(c, oid);
      if (avail < best_avail) {
        best_avail = avail;
        best = c;
        best_in_place = in_place;
      }
    }
    return {best, best_in_place};
  }

  void schedule_operation(OperationId oid,
                          ComponentId forced = kNoComponent) {
    const Operation& op = graph_.operation(oid);

    // --- Binding decision -------------------------------------------------
    ComponentId comp = kNoComponent;
    OperationId in_place_parent = kNoOperation;
    if (forced.valid()) {
      comp = forced;
      in_place_parent = availability(comp, oid).second;
    } else if (opts_.policy == BindingPolicy::kDcsa) {
      const auto resident_parents = resident_same_type_parents(oid);
      if (!resident_parents.empty()) {
        in_place_parent = pick_case1_parent(resident_parents);  // Case I
        comp = record(in_place_parent).component;
      } else {
        std::tie(comp, in_place_parent) = pick_earliest_ready(oid);  // Case II
      }
    } else {
      std::tie(comp, in_place_parent) = pick_earliest_ready(oid);  // BA
    }
    assert(comp.valid());

    // --- Start-time computation -------------------------------------------
    CompState& cs = state(comp);
    double start = 0.0;
    if (in_place_parent.valid()) {
      start = record(in_place_parent).end;
    } else {
      start = cs.ready;
    }
    for (OperationId p : graph_.parents(oid)) {
      if (p == in_place_parent) {
        start = std::max(start, record(p).end);
        continue;
      }
      const Share& share = record(p).shares.at(oid.value);
      switch (share.location) {
        case ShareLocation::kComponent:
          start = std::max(start, record(p).end + opts_.transport_time);
          break;
        case ShareLocation::kChannel:
          start = std::max(start, share.channel_since + opts_.transport_time);
          break;
        case ShareLocation::kConsumed:
          assert(false && "share consumed before its consumer was scheduled");
          break;
      }
    }
    const double end = start + op.duration;

    // --- Clear the chosen component: wash & evictions ----------------------
    if (cs.has_residue) {
      const OperationId resident = cs.resident;
      OpRecord& rrec = record(resident);
      const bool in_place_here = (resident == in_place_parent);
      const double wash = wash_of(resident);
      // Evict every share of the resident fluid whose consumer has not been
      // scheduled yet (except the share we are about to consume in place):
      // the chamber is needed, so those shares move into channel storage.
      const double deadline = in_place_here ? start : start - wash;
      for (auto& [consumer_value, share] : rrec.shares) {
        if (consumer_value == oid.value && in_place_here) continue;
        if (share.location == ShareLocation::kComponent) {
          share.location = ShareLocation::kChannel;
          share.channel_since = rrec.end;
          share.departure_deadline = std::max(rrec.end, deadline);
          cs.vacate = std::max(cs.vacate, rrec.end);
        }
      }
      if (!in_place_here) {
        // Foreign operation: the residue is a contaminant; wash right after
        // the fluid is fully gone (Eq. 2).
        schedule_.component_washes.push_back(
            {comp, resident, graph_.operation(resident).output, cs.vacate,
             cs.vacate + wash});
      }
      cs.has_residue = false;
      cs.resident = kNoOperation;
    }

    // --- Transports for the remaining inputs -------------------------------
    for (OperationId p : graph_.parents(oid)) {
      if (p == in_place_parent) {
        record(p).shares.at(oid.value).location = ShareLocation::kConsumed;
        continue;
      }
      OpRecord& prec = record(p);
      Share& share = prec.shares.at(oid.value);
      TransportTask task;
      task.id = static_cast<int>(schedule_.transports.size());
      task.producer = p;
      task.consumer = oid;
      task.from = prec.component;
      task.to = comp;
      task.fluid = graph_.operation(p).output;
      task.transport_time = opts_.transport_time;
      task.consume = start;
      if (share.location == ShareLocation::kChannel) {
        task.departure = share.channel_since;
        task.departure_deadline = std::min(share.departure_deadline,
                                           start - opts_.transport_time);
        task.evicted = true;
      } else {
        // Still in the producer component: leave as late as possible.
        task.departure = std::max(prec.end, start - opts_.transport_time);
        task.departure_deadline = task.departure;
        CompState& pcs = state(prec.component);
        if (pcs.resident == p) {
          pcs.vacate = std::max(pcs.vacate, task.departure);
          pcs.ready = pcs.vacate + wash_of(p);
        }
      }
      share.location = ShareLocation::kConsumed;
      schedule_.transports.push_back(task);
    }

    // --- Commit the operation ----------------------------------------------
    ScheduledOperation so;
    so.op = oid;
    so.component = comp;
    so.start = start;
    so.end = end;
    so.in_place_parent = in_place_parent;
    schedule_.at(oid) = so;

    OpRecord& rec = record(oid);
    rec.component = comp;
    rec.end = end;
    for (OperationId child : graph_.children(oid)) {
      rec.shares.emplace(child.value, Share{});
    }

    cs.resident = oid;
    cs.has_residue = true;
    cs.vacate = end;
    cs.ready = end + wash_of(oid);
  }

  const SequencingGraph& graph_;
  const Allocation& allocation_;
  const WashModel& wash_;
  SchedulerOptions opts_;
  Schedule schedule_;
  std::vector<OpRecord> records_;
  std::vector<CompState> comp_states_;
};

}  // namespace

Schedule schedule_bioassay_reference(const SequencingGraph& graph,
                                     const Allocation& allocation,
                                     const WashModel& wash_model,
                                     const SchedulerOptions& options) {
  return Scheduler(graph, allocation, wash_model, options).run();
}

Schedule replay_schedule_reference(
    const SequencingGraph& graph, const Allocation& allocation,
    const WashModel& wash_model, const SchedulerOptions& options,
    const std::vector<ScheduleDecision>& decisions) {
  return Scheduler(graph, allocation, wash_model, options)
      .run_replay(decisions);
}

}  // namespace fbmb
