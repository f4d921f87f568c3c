#include "report/json.hpp"

#include <cstdio>
#include <sstream>

namespace fbmb {

std::string json_number(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string json_quote(const std::string& value) {
  std::string out = "\"";
  for (const char ch : value) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string schedule_to_json(const Schedule& schedule,
                             const SequencingGraph& graph,
                             const Allocation& allocation) {
  std::ostringstream os;
  os << "{\n  \"completion_time\": " << json_number(schedule.completion_time)
     << ",\n  \"transport_time\": " << json_number(schedule.transport_time)
     << ",\n  \"total_cache_time\": "
     << json_number(schedule.total_cache_time())
     << ",\n  \"operations\": [";
  bool first = true;
  for (const auto& so : schedule.operations) {
    if (!so.op.valid() || !so.component.valid()) continue;  // partial replay
    os << (first ? "" : ",") << "\n    {\"name\": "
       << json_quote(graph.operation(so.op).name) << ", \"component\": "
       << json_quote(allocation.component(so.component).name)
       << ", \"start\": " << json_number(so.start) << ", \"end\": "
       << json_number(so.end) << ", \"in_place\": "
       << (so.consumed_in_place() ? "true" : "false") << "}";
    first = false;
  }
  os << "\n  ],\n  \"transports\": [";
  first = true;
  for (const auto& t : schedule.transports) {
    os << (first ? "" : ",") << "\n    {\"producer\": "
       << json_quote(graph.operation(t.producer).name) << ", \"consumer\": "
       << json_quote(graph.operation(t.consumer).name) << ", \"fluid\": "
       << json_quote(t.fluid.name) << ", \"departure\": "
       << json_number(t.departure)
       << ", \"arrival\": " << json_number(t.arrival())
       << ", \"consume\": " << json_number(t.consume) << ", \"cache_time\": "
       << json_number(t.cache_time()) << ", \"evicted\": "
       << (t.evicted ? "true" : "false") << "}";
    first = false;
  }
  os << "\n  ],\n  \"washes\": [";
  first = true;
  for (const auto& w : schedule.component_washes) {
    os << (first ? "" : ",") << "\n    {\"component\": "
       << json_quote(allocation.component(w.component).name)
       << ", \"residue\": " << json_quote(w.residue.name) << ", \"start\": "
       << json_number(w.start) << ", \"end\": " << json_number(w.end) << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace fbmb
