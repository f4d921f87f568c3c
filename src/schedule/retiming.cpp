#include "schedule/retiming.hpp"

#include "schedule/list_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

namespace fbmb {

namespace {

/// Items 0..n-1 grouped by a dense key: group k is
/// items[begin[k]] .. items[begin[k + 1] - 1], in ascending item order.
/// Built in two passes over the items, with no allocation per group.
/// Throws std::out_of_range on a key outside [0, keys), as
/// Schedule::at does for an operation id outside the schedule.
struct Groups {
  std::vector<std::size_t> begin;
  std::vector<std::size_t> items;

  template <typename Key>
  Groups(std::size_t keys, std::size_t n, Key key) : begin(keys + 1, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (key(i) >= keys) {
        throw std::out_of_range("retiming: id outside the schedule");
      }
      ++begin[key(i) + 1];
    }
    for (std::size_t k = 0; k < keys; ++k) begin[k + 1] += begin[k];
    items.resize(n);
    std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < n; ++i) items[fill[key(i)]++] = i;
  }

  std::size_t first(std::size_t k) const { return begin[k]; }
  std::size_t last(std::size_t k) const { return begin[k + 1]; }
};

}  // namespace

void apply_transport_delays(Schedule& schedule, const SequencingGraph& graph,
                            const std::vector<double>& extra_delay) {
  (void)graph;  // reserved for stricter dependency-aware retiming
  assert(extra_delay.size() == schedule.transports.size());

  const auto original_ops = schedule.operations;  // pre-shift times
  // Every table below is a vector indexed by operation id (the index of
  // schedule.operations) or component id, read in ascending id order.
  const std::size_t n_ops = original_ops.size();
  const auto& transports = schedule.transports;

  // Minimum departures after routing postponement.
  std::vector<double> min_departure(transports.size());
  for (std::size_t i = 0; i < transports.size(); ++i) {
    assert(extra_delay[i] >= 0.0);
    min_departure[i] = transports[i].departure + extra_delay[i];
  }

  // Per-component operation order (by original start time). Every
  // component an operation or a wash names has a group, empty or not.
  std::size_t n_components = 0;
  for (const auto& so : original_ops) {
    n_components = std::max(
        n_components, static_cast<std::size_t>(so.component.value) + 1);
  }
  for (const auto& w : schedule.component_washes) {
    n_components = std::max(
        n_components, static_cast<std::size_t>(w.component.value) + 1);
  }
  Groups on_component(n_components, n_ops, [&](std::size_t o) {
    return static_cast<std::size_t>(original_ops[o].component.value);
  });
  // Previous operation on the same component, and the original gap before
  // each operation (start - previous end, or start), which embeds its wash
  // window.
  std::vector<OperationId> prev_on_comp(n_ops, kNoOperation);
  std::vector<double> gap_of(n_ops, 0.0);
  for (std::size_t c = 0; c < n_components; ++c) {
    const auto first = on_component.items.begin() +
                       static_cast<std::ptrdiff_t>(on_component.first(c));
    const auto last = on_component.items.begin() +
                      static_cast<std::ptrdiff_t>(on_component.last(c));
    std::sort(first, last, [&](std::size_t a, std::size_t b) {
      const auto& sa = original_ops[a];
      const auto& sb = original_ops[b];
      return sa.start != sb.start ? sa.start < sb.start : a < b;
    });
    for (auto it = first; it != last; ++it) {
      const auto& so = original_ops[*it];
      if (it == first) {
        gap_of[*it] = so.start;
        continue;
      }
      const auto& before = original_ops[*(it - 1)];
      gap_of[*it] = so.start - before.end;
      prev_on_comp[*it] = before.op;
    }
  }

  // Transports indexed by consumer for the dependency sweep, and by
  // producer for the chamber-vacate sweep (a share departing later keeps
  // the producer's chamber dirty longer, pushing the next operation on that
  // component past its wash window).
  const Groups transports_into(n_ops, transports.size(), [&](std::size_t i) {
    return static_cast<std::size_t>(transports[i].consumer.value);
  });
  const Groups transports_out_of(n_ops, transports.size(),
                                 [&](std::size_t i) {
    return static_cast<std::size_t>(transports[i].producer.value);
  });

  // Events ordered by original start time form a DAG of "not earlier than"
  // constraints, so sweeping in that order converges; we iterate to a fixed
  // point anyway as a belt-and-braces measure.
  std::vector<OperationId> time_order;
  time_order.reserve(n_ops);
  for (const auto& so : original_ops) time_order.push_back(so.op);
  std::sort(time_order.begin(), time_order.end(),
            [&](OperationId a, OperationId b) {
              const auto& sa = original_ops[static_cast<std::size_t>(a.value)];
              const auto& sb = original_ops[static_cast<std::size_t>(b.value)];
              return sa.start != sb.start ? sa.start < sb.start
                                          : a.value < b.value;
            });

  bool changed = true;
  int guard = 0;
  while (changed && guard++ < 64) {
    changed = false;
    for (OperationId oid : time_order) {
      auto& so = schedule.at(oid);
      double start = so.start;
      // Component predecessor with original gap (covers wash window).
      const auto o = static_cast<std::size_t>(oid.value);
      const OperationId prev = prev_on_comp[o];
      if (prev.valid()) {
        start = std::max(start, schedule.at(prev).end + gap_of[o]);
        // The predecessor's residue must also have departed (plus its wash)
        // before this operation starts; preserve the original
        // departure-to-start margin for every share leaving this component.
        const auto p = static_cast<std::size_t>(prev.value);
        for (std::size_t k = transports_out_of.first(p);
             k < transports_out_of.last(p); ++k) {
          const std::size_t ti = transports_out_of.items[k];
          // Transport times are committed only after this loop, so
          // t.departure still holds the original departure here.
          const auto& t = transports[ti];
          if (t.from != so.component) continue;
          const double dep =
              std::max(min_departure[ti], schedule.at(t.producer).end);
          const double margin =
              std::max(0.0, original_ops[o].start - t.departure);
          start = std::max(start, dep + margin);
        }
      }
      // In-place parent.
      if (so.consumed_in_place()) {
        start = std::max(start, schedule.at(so.in_place_parent).end);
      }
      // Incoming transports.
      for (std::size_t k = transports_into.first(o);
           k < transports_into.last(o); ++k) {
        const std::size_t ti = transports_into.items[k];
        const auto& t = transports[ti];
        const double dep =
            std::max(min_departure[ti], schedule.at(t.producer).end);
        start = std::max(start, dep + t.transport_time);
      }
      if (start > so.start + 1e-12) {
        const double duration = so.end - so.start;
        so.start = start;
        so.end = start + duration;
        changed = true;
      }
    }
  }
  assert(guard < 64 && "retiming failed to converge");

  // Commit transport times: departure as late as allowed (consume - t_c),
  // but never before the routing-imposed minimum or the producer's end.
  for (std::size_t i = 0; i < schedule.transports.size(); ++i) {
    auto& t = schedule.transports[i];
    t.consume = schedule.at(t.consumer).start;
    const double dep =
        std::max(min_departure[i], schedule.at(t.producer).end);
    t.departure = std::max(dep, t.departure);
    // Keep arrival <= consume.
    if (t.arrival() > t.consume) {
      t.departure = t.consume - t.transport_time;
    }
    assert(t.departure + 1e-9 >= schedule.at(t.producer).end);
  }

  // Shift each wash event with the operation that follows it on the
  // component (keeping its duration).
  for (auto& w : schedule.component_washes) {
    const auto c = static_cast<std::size_t>(w.component.value);
    for (std::size_t k = on_component.first(c); k < on_component.last(c);
         ++k) {
      const auto& orig = original_ops[on_component.items[k]];
      if (orig.start + 1e-9 >= w.end) {
        const double shift = schedule.at(orig.op).start - orig.start;
        w.start += shift;
        w.end += shift;
        break;
      }
    }
  }

  align_washes_to_departures(schedule);

  schedule.completion_time = 0.0;
  for (const auto& so : schedule.operations) {
    schedule.completion_time = std::max(schedule.completion_time, so.end);
  }
}

}  // namespace fbmb
