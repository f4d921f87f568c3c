#include "place/connection_priority.hpp"

#include <algorithm>

namespace fbmb {

std::vector<int> concurrent_transport_counts(
    const std::vector<TransportTask>& transports) {
  // Window k = [s_k, e_k) overlaps window i iff s_i < e_k and e_i > s_k.
  // Over sorted endpoint arrays, A_k = #{i : s_i < e_k} and
  // B_k = #{i : e_i <= s_k}; with non-negative durations B_k's windows are
  // a subset of A_k's, so nt_k = A_k - B_k - 1 (minus k itself).
  //
  // Zero-duration windows break the subset argument: a window collapsed to
  // the instant s_k lands in B_k without landing in A_k. For a
  // zero-duration k (which overlaps exactly the windows whose interior
  // strictly contains s_k, itself included in neither side), the count is
  // A_k - B_k + Z(s_k), where Z(s_k) is the number of zero-duration
  // windows at exactly s_k: each contributes (0, 1) to (A_k, B_k) yet
  // overlaps nothing, and k itself nets to zero through the same
  // correction.
  const std::size_t n = transports.size();
  std::vector<int> counts(n, 0);
  if (n == 0) return counts;

  std::vector<double> starts(n), ends(n), zero_points;
  for (std::size_t i = 0; i < n; ++i) {
    starts[i] = transports[i].departure;
    ends[i] = transports[i].arrival();
    if (starts[i] == ends[i]) zero_points.push_back(starts[i]);
  }
  std::vector<double> sorted_starts = starts;
  std::vector<double> sorted_ends = ends;
  std::sort(sorted_starts.begin(), sorted_starts.end());
  std::sort(sorted_ends.begin(), sorted_ends.end());
  std::sort(zero_points.begin(), zero_points.end());

  for (std::size_t k = 0; k < n; ++k) {
    const auto a = static_cast<long>(
        std::lower_bound(sorted_starts.begin(), sorted_starts.end(),
                         ends[k]) -
        sorted_starts.begin());
    const auto b = static_cast<long>(
        std::upper_bound(sorted_ends.begin(), sorted_ends.end(), starts[k]) -
        sorted_ends.begin());
    if (starts[k] < ends[k]) {
      counts[k] = static_cast<int>(a - b - 1);
    } else {
      const auto range = std::equal_range(zero_points.begin(),
                                          zero_points.end(), starts[k]);
      counts[k] = static_cast<int>(a - b + (range.second - range.first));
    }
  }
  return counts;
}

std::vector<Net> build_nets(const Schedule& schedule,
                            const WashModel& wash_model, double beta,
                            double gamma) {
  std::map<std::pair<int, int>, Net> nets;
  const auto& transports = schedule.transports;
  const std::vector<int> nt_counts = concurrent_transport_counts(transports);
  for (std::size_t k = 0; k < transports.size(); ++k) {
    const TransportTask& t = transports[k];
    if (t.from == t.to) continue;
    const int lo = std::min(t.from.value, t.to.value);
    const int hi = std::max(t.from.value, t.to.value);
    Net& net = nets[{lo, hi}];
    net.a = ComponentId{lo};
    net.b = ComponentId{hi};
    const double nt = nt_counts[k];
    const double wt = wash_model.wash_time(t.fluid);
    net.priority += beta * nt + gamma * wt;
    ++net.task_count;
  }
  std::vector<Net> out;
  out.reserve(nets.size());
  for (const auto& [key, net] : nets) out.push_back(net);
  return out;
}

}  // namespace fbmb
