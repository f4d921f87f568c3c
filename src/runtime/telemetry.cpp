#include "runtime/telemetry.hpp"

#include <sstream>

#include "report/json.hpp"
#include "util/fields.hpp"

namespace fbmb {

void Telemetry::record_result(const SynthesisResult& result,
                              double wall_seconds) {
  update([&](Snapshot& s) {
    add_fields(s.stage_seconds, result.stage_seconds);
    add_fields(s.routing, result.routing.stats);
    add_fields(s.flow, result.flow_stats);
    add_fields(s.placement, result.place_stats);
    add_fields(s.scheduling, result.sched_stats);
    s.synthesis_seconds += wall_seconds;
  });
}

Telemetry::Snapshot Telemetry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

void Telemetry::write_counters(std::ostream& os, const RouteStats& routing,
                               const FlowStats& flow,
                               const PlaceStats& placement,
                               const SchedStats& scheduling) {
  os << "\"routing\": {" << json_fields(routing)
     << "}, \"flow\": {" << json_fields(flow)
     << "}, \"placement\": {" << json_fields(placement)
     << "}, \"scheduling\": {" << json_fields(scheduling) << "}";
}

std::string Telemetry::to_json(const Snapshot& s, std::uint64_t cache_hits,
                               std::uint64_t cache_misses,
                               std::uint64_t max_queue_depth) {
  std::ostringstream os;
  os << "{\"stages\": {" << json_fields(s.stage_seconds, json_number)
     << ", \"total\": " << json_number(s.stage_seconds.total())
     << "}, \"cache\": {\"hits\": " << cache_hits
     << ", \"misses\": " << cache_misses
     << "}, \"jobs\": {\"submitted\": " << s.jobs_submitted
     << ", \"completed\": " << s.jobs_completed
     << ", \"cancelled\": " << s.jobs_cancelled
     << ", \"in_flight\": " << s.jobs_in_flight << "}, ";
  write_counters(os, s.routing, s.flow, s.placement, s.scheduling);
  os << ", \"max_queue_depth\": " << max_queue_depth
     << ", \"synthesis_seconds\": " << json_number(s.synthesis_seconds) << "}";
  return os.str();
}

}  // namespace fbmb
