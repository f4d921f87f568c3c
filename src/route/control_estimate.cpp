#include "route/control_estimate.hpp"

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace fbmb {

namespace {

/// Canonical direction index of the segment p -> q (0..3).
int direction(const Point& p, const Point& q) {
  if (q.x > p.x) return 0;
  if (q.x < p.x) return 1;
  if (q.y > p.y) return 2;
  return 3;
}

}  // namespace

ControlEstimate estimate_control_layer(const RoutingResult& routing) {
  ControlEstimate est;

  // Distinct incident segment directions per cell, over all paths.
  std::unordered_map<Point, std::set<int>> incident;
  std::unordered_set<std::uint64_t> port_stubs;
  for (const auto& path : routing.paths) {
    for (std::size_t i = 1; i < path.cells.size(); ++i) {
      const Point& a = path.cells[i - 1];
      const Point& b = path.cells[i];
      incident[a].insert(direction(a, b));
      incident[b].insert(direction(b, a));
    }
    if (!path.cells.empty()) {
      const auto stub_key = [](int comp, const Point& port) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comp))
                << 32) |
               ((static_cast<std::uint64_t>(static_cast<std::uint16_t>(
                     port.x))
                 << 16) |
                static_cast<std::uint16_t>(port.y));
      };
      port_stubs.insert(stub_key(path.from_component, path.cells.front()));
      port_stubs.insert(stub_key(path.to_component, path.cells.back()));
    }
  }

  // Valve placement: k valves per junction cell (k >= 3 incident
  // directions), one per port stub.
  std::unordered_map<Point, int> valves_at;
  for (const auto& [cell, dirs] : incident) {
    if (dirs.size() >= 3) {
      ++est.junction_cells;
      valves_at[cell] = static_cast<int>(dirs.size());
      est.valve_count += static_cast<int>(dirs.size());
    }
  }
  est.port_valves = static_cast<int>(port_stubs.size());
  est.valve_count += est.port_valves;

  // Switching: each task pass opens + closes the valves it crosses; a wash
  // flush over the path toggles them once more.
  for (const auto& path : routing.paths) {
    long valves_on_path = 2;  // the two port valves
    for (const Point& cell : path.cells) {
      if (auto it = valves_at.find(cell); it != valves_at.end()) {
        valves_on_path += it->second;
      }
    }
    const long passes = path.wash_duration > 0.0 ? 2 : 1;
    est.switching_count += 2 * valves_on_path * passes;
  }

  if (est.valve_count > 0) {
    est.switches_per_valve =
        static_cast<double>(est.switching_count) /
        static_cast<double>(est.valve_count);
  }
  return est;
}

MultiplexingEstimate estimate_control_multiplexing(
    const RoutingResult& routing) {
  MultiplexingEstimate est;

  // Incident directions per cell decide which cells are valve sites
  // (junctions); activation set = transports crossing the site.
  std::unordered_map<Point, std::set<int>> incident;
  std::unordered_map<Point, std::set<int>> crossing;
  for (const auto& path : routing.paths) {
    for (std::size_t i = 1; i < path.cells.size(); ++i) {
      const Point& a = path.cells[i - 1];
      const Point& b = path.cells[i];
      incident[a].insert(direction(a, b));
      incident[b].insert(direction(b, a));
    }
    for (const Point& cell : path.cells) {
      crossing[cell].insert(path.transport_id);
    }
  }

  // Port stubs are always valve sites; their activation set is the set of
  // transports that start or end there.
  std::map<std::pair<int, Point>, std::set<int>> stubs;
  for (const auto& path : routing.paths) {
    if (path.cells.empty()) continue;
    stubs[{path.from_component, path.cells.front()}].insert(
        path.transport_id);
    stubs[{path.to_component, path.cells.back()}].insert(path.transport_id);
  }

  std::set<std::set<int>> activation_sets;
  for (const auto& [cell, dirs] : incident) {
    if (dirs.size() < 3) continue;
    ++est.valve_sites;
    activation_sets.insert(crossing[cell]);
  }
  for (const auto& [key, tasks] : stubs) {
    ++est.valve_sites;
    activation_sets.insert(tasks);
  }
  est.control_lines = static_cast<int>(activation_sets.size());
  if (est.control_lines > 0) {
    est.sharing_ratio = static_cast<double>(est.valve_sites) /
                        static_cast<double>(est.control_lines);
  }
  return est;
}

std::vector<ValveSite> control_valve_sites(const RoutingResult& routing) {
  std::unordered_map<Point, std::set<int>> incident;
  std::unordered_map<Point, std::set<int>> crossing;
  for (const auto& path : routing.paths) {
    for (std::size_t i = 1; i < path.cells.size(); ++i) {
      const Point& a = path.cells[i - 1];
      const Point& b = path.cells[i];
      incident[a].insert(direction(a, b));
      incident[b].insert(direction(b, a));
    }
    for (const Point& cell : path.cells) {
      crossing[cell].insert(path.transport_id);
    }
  }
  // Deterministic order: sort cells.
  std::map<Point, std::set<int>> junctions;
  for (const auto& [cell, dirs] : incident) {
    if (dirs.size() >= 3) junctions[cell] = crossing[cell];
  }
  std::map<Point, std::set<int>> stubs;
  for (const auto& path : routing.paths) {
    if (path.cells.empty()) continue;
    stubs[path.cells.front()].insert(path.transport_id);
    stubs[path.cells.back()].insert(path.transport_id);
  }
  std::vector<ValveSite> sites;
  for (const auto& [cell, tasks] : junctions) {
    sites.push_back({cell, tasks, false});
  }
  for (const auto& [cell, tasks] : stubs) {
    if (junctions.contains(cell)) continue;  // already a junction site
    sites.push_back({cell, tasks, true});
  }
  return sites;
}

}  // namespace fbmb
