// Schedule-level metrics reported in the paper's evaluation.

#pragma once

#include "biochip/component_library.hpp"
#include "schedule/types.hpp"

namespace fbmb {

/// On-chip resource utilization U_r (Eq. 1):
///   U_r = (1/|C|) * sum_i T_a(i) / (T_le(i) - T_fs(i))
/// where T_a(i) is the total busy time of component i, and T_le/T_fs are the
/// end of its last and start of its first operation. Components with no
/// bound operation contribute 0 (allocated but idle); a component whose
/// single operation gives T_le == T_fs would divide by zero and contributes
/// its ideal ratio 1. Returned in [0, 1].
double resource_utilization(const Schedule& schedule,
                            const Allocation& allocation);

/// Per-benchmark scheduling statistics bundle.
struct ScheduleStats {
  double completion_time = 0.0;
  double utilization = 0.0;          ///< Eq. 1, in [0,1]
  double total_cache_time = 0.0;     ///< channel-cache dwell (Fig. 8)
  double component_wash_time = 0.0;  ///< sum of component wash durations
  int transport_count = 0;
  int eviction_count = 0;
  int in_place_count = 0;

  friend bool operator==(const ScheduleStats&, const ScheduleStats&) = default;
};

ScheduleStats compute_schedule_stats(const Schedule& schedule,
                                     const Allocation& allocation);

}  // namespace fbmb
