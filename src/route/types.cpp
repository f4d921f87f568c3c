#include "route/types.hpp"

#include <cstdint>
#include <unordered_set>

namespace fbmb {

namespace {

std::uint64_t edge_key(const Point& a, const Point& b) {
  // Canonical undirected key: order endpoints lexicographically.
  const Point lo = (a < b) ? a : b;
  const Point hi = (a < b) ? b : a;
  const auto pack = [](const Point& p) {
    return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.x))
            << 16) |
           static_cast<std::uint16_t>(p.y);
  };
  return (pack(lo) << 32) | pack(hi);
}

}  // namespace

int RoutingResult::distinct_channel_edges() const {
  std::unordered_set<std::uint64_t> edges;
  for (const auto& path : paths) {
    for (std::size_t i = 1; i < path.cells.size(); ++i) {
      edges.insert(edge_key(path.cells[i - 1], path.cells[i]));
    }
    if (!path.cells.empty()) {
      // Connection stubs from the components into the channel network; the
      // key space (bit 63 set) cannot collide with cell-cell edges.
      const auto stub = [](int component, const Point& port) {
        return (1ULL << 63) |
               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    component))
                << 32) |
               ((static_cast<std::uint64_t>(static_cast<std::uint16_t>(
                     port.x))
                 << 16) |
                static_cast<std::uint16_t>(port.y));
      };
      edges.insert(stub(path.from_component, path.cells.front()));
      edges.insert(stub(path.to_component, path.cells.back()));
    }
  }
  return static_cast<int>(edges.size());
}

int RoutingResult::total_routed_cells() const {
  int sum = 0;
  for (const auto& path : paths) sum += path.length_cells();
  return sum;
}

bool identical_routing(const RoutingResult& a, const RoutingResult& b) {
  return a.paths == b.paths && a.delays == b.delays &&
         a.total_wash_time == b.total_wash_time &&
         a.conflict_postponements == b.conflict_postponements;
}

}  // namespace fbmb
