// Connection priorities between components (Eq. 4).
//
// Placement pulls strongly-connected components together. For every pair of
// components (c_i, c_j) with q transport tasks between them, the connection
// priority is
//
//   cp(i,j) = sum_{k=1..q} ( beta * nt_k + gamma * wt_k )
//
// where nt_k is the number of other transport tasks whose movement interval
// overlaps task k's (concurrency: concurrent tasks compete for channels, so
// their endpoints should be near each other), and wt_k is the wash time of
// the residue task k leaves in channels (low-diffusion fluids are expensive
// to cache far away). Pairs with no transports have cp = 0 and form no net.

#pragma once

#include <map>
#include <utility>
#include <vector>

#include "biochip/component.hpp"
#include "biochip/wash_model.hpp"
#include "schedule/types.hpp"

namespace fbmb {

/// An inter-component net with its Eq. 4 weight.
struct Net {
  ComponentId a;
  ComponentId b;
  double priority = 0.0;  ///< cp(a,b)
  int task_count = 0;     ///< q
};

/// The number of transports whose movement window [departure, arrival)
/// overlaps each transport's (the nt_k term), for every transport at once
/// via sorted endpoint arrays and binary search — O(T log T) against the
/// O(T^2) of the pairwise oracle concurrent_transport_count
/// (oracle/reference_placer.hpp), with identical results. Edge
/// cases follow TimeInterval's strict inequalities: touching windows do
/// not count, and a zero-duration window overlaps exactly the windows
/// whose interior strictly contains its instant (never another
/// zero-duration window). Precondition: transport_time >= 0 per task.
std::vector<int> concurrent_transport_counts(
    const std::vector<TransportTask>& transports);

/// Builds the net list with Eq. 4 priorities from a schedule. Transports
/// with from == to (round trips through channel storage next to one
/// component) produce no net. Nets are keyed with a < b and returned in
/// (a, b) order.
std::vector<Net> build_nets(const Schedule& schedule,
                            const WashModel& wash_model, double beta,
                            double gamma);

}  // namespace fbmb
