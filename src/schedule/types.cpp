#include "schedule/types.hpp"

#include <algorithm>
#include <sstream>

#include "util/strings.hpp"

namespace fbmb {

std::vector<ScheduledOperation> Schedule::operations_on(ComponentId c) const {
  std::vector<ScheduledOperation> out;
  for (const auto& so : operations) {
    if (so.component == c) out.push_back(so);
  }
  std::sort(out.begin(), out.end(),
            [](const ScheduledOperation& a, const ScheduledOperation& b) {
              return a.start < b.start;
            });
  return out;
}

double Schedule::total_cache_time() const {
  double sum = 0.0;
  for (const auto& t : transports) sum += t.cache_time();
  return sum;
}

double Schedule::total_component_wash_time() const {
  double sum = 0.0;
  for (const auto& w : component_washes) sum += w.duration();
  return sum;
}

std::string Schedule::to_string(const SequencingGraph& graph) const {
  std::ostringstream os;
  os << "schedule: completion=" << format_double(completion_time) << "s, "
     << transports.size() << " transports, " << component_washes.size()
     << " washes\n";
  auto sorted = operations;
  std::sort(sorted.begin(), sorted.end(),
            [](const ScheduledOperation& a, const ScheduledOperation& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.op.value < b.op.value;
            });
  for (const auto& so : sorted) {
    const Operation& op = graph.operation(so.op);
    os << "  " << pad_right(op.name, 8) << " on c" << so.component.value
       << "  [" << format_double(so.start, 1) << ", "
       << format_double(so.end, 1) << ")";
    if (so.consumed_in_place()) {
      os << "  (in-place input from "
         << graph.operation(so.in_place_parent).name << ")";
    }
    os << '\n';
  }
  for (const auto& t : transports) {
    os << "  move " << graph.operation(t.producer).name << "->"
       << graph.operation(t.consumer).name << "  c" << t.from.value << "->c"
       << t.to.value << "  dep=" << format_double(t.departure, 1)
       << " arr=" << format_double(t.arrival(), 1)
       << " consume=" << format_double(t.consume, 1);
    if (t.cache_time() > 0.0) {
      os << "  cache=" << format_double(t.cache_time(), 1) << 's';
    }
    if (t.evicted) os << "  (evicted)";
    os << '\n';
  }
  return os.str();
}

}  // namespace fbmb
