#include "route/control_router.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace fbmb {

namespace {

struct Group {
  std::set<int> activation;
  std::vector<Point> valves;
};

bool on_boundary(const Point& p, int width, int height) {
  return p.x == 0 || p.y == 0 || p.x == width - 1 || p.y == height - 1;
}

/// BFS from a set of seed cells to the nearest cell satisfying `is_goal`,
/// avoiding `blocked`. Returns the path from a seed to the goal (seed
/// first), or empty.
std::vector<Point> bfs_to(const std::vector<Point>& seeds,
                          const std::unordered_set<Point>& blocked,
                          int width, int height,
                          const std::function<bool(const Point&)>& is_goal) {
  std::unordered_map<Point, Point> parent;
  std::deque<Point> frontier;
  for (const Point& s : seeds) {
    if (blocked.contains(s)) continue;
    if (!parent.contains(s)) {
      parent[s] = s;
      frontier.push_back(s);
    }
  }
  auto reconstruct = [&](Point p) {
    std::vector<Point> path{p};
    while (parent[p] != p) {
      p = parent[p];
      path.push_back(p);
    }
    std::reverse(path.begin(), path.end());
    return path;
  };
  for (const Point& s : frontier) {
    if (is_goal(s)) return reconstruct(s);
  }
  while (!frontier.empty()) {
    const Point p = frontier.front();
    frontier.pop_front();
    const Point neighbors[4] = {
        {p.x + 1, p.y}, {p.x - 1, p.y}, {p.x, p.y + 1}, {p.x, p.y - 1}};
    for (const Point& n : neighbors) {
      if (n.x < 0 || n.y < 0 || n.x >= width || n.y >= height) continue;
      if (blocked.contains(n) || parent.contains(n)) continue;
      parent[n] = p;
      if (is_goal(n)) return reconstruct(n);
      frontier.push_back(n);
    }
  }
  return {};
}

}  // namespace

double ControlRoutingResult::total_length_mm(double cell_pitch_mm) const {
  // Route cells live on the refined track grid; lengths are reported in
  // flow-cell units (total_cells already normalized at build time).
  return total_cells() * cell_pitch_mm;
}

int ControlRoutingResult::total_cells() const {
  int sum = 0;
  for (const auto& route : routes) {
    sum += static_cast<int>(route.cells.size());
  }
  return sum;
}

ControlRoutingResult route_control_layer(const RoutingResult& routing,
                                         const ChipSpec& spec,
                                         int tracks_per_cell) {
  ControlRoutingResult result;
  const int k = std::max(1, tracks_per_cell);
  const int width = spec.grid_width * k;
  const int height = spec.grid_height * k;
  if (width <= 0 || height <= 0) return result;

  // Group valve sites by activation set; valve positions move onto the
  // refined track grid (center track of their flow cell).
  std::map<std::set<int>, Group> groups;
  for (const ValveSite& site : control_valve_sites(routing)) {
    Group& group = groups[site.activation];
    group.activation = site.activation;
    group.valves.push_back({site.cell.x * k + k / 2,
                            site.cell.y * k + k / 2});
  }
  std::vector<Group> ordered;
  for (auto& [key, group] : groups) ordered.push_back(std::move(group));
  std::sort(ordered.begin(), ordered.end(), [](const Group& a,
                                               const Group& b) {
    if (a.valves.size() != b.valves.size()) {
      return a.valves.size() > b.valves.size();  // hardest first
    }
    return a.valves.front() < b.valves.front();
  });

  // Every valve cell is reserved from the start: no line may route over a
  // foreign valve (it would pinch the membrane that actuates it).
  std::unordered_set<Point> all_valves;
  for (const Group& group : ordered) {
    for (const Point& v : group.valves) all_valves.insert(v);
  }

  std::unordered_set<Point> used;  // cells taken by committed lines
  int line_id = 0;
  for (const Group& group : ordered) {
    ControlRoute route;
    route.line_id = line_id++;
    route.valve_cells = group.valves;

    // Blocked = committed lines + foreign valves.
    std::unordered_set<Point> blocked = used;
    for (const Point& v : all_valves) blocked.insert(v);
    for (const Point& v : group.valves) blocked.erase(v);

    // Grow a tree: start at the first valve, then BFS to each remaining
    // valve from the current tree, then escape to the boundary.
    std::unordered_set<Point> tree;
    std::vector<Point> tree_cells;
    bool failed = false;
    std::vector<Point> pending = group.valves;
    std::sort(pending.begin(), pending.end());
    tree.insert(pending.front());
    tree_cells.push_back(pending.front());
    pending.erase(pending.begin());

    while (!pending.empty() && !failed) {
      // Nearest pending valve from the tree.
      std::unordered_set<Point> pending_set(pending.begin(), pending.end());
      const auto path =
          bfs_to(tree_cells, blocked, width, height, [&](const Point& p) {
            return pending_set.contains(p);
          });
      if (path.empty()) {
        failed = true;
        break;
      }
      for (const Point& p : path) {
        if (tree.insert(p).second) tree_cells.push_back(p);
      }
      pending.erase(std::remove(pending.begin(), pending.end(),
                                path.back()),
                    pending.end());
    }
    if (!failed) {
      const auto escape =
          bfs_to(tree_cells, blocked, width, height, [&](const Point& p) {
            return on_boundary(p, width, height);
          });
      if (escape.empty()) {
        failed = true;
      } else {
        for (const Point& p : escape) {
          if (tree.insert(p).second) tree_cells.push_back(p);
        }
        route.escaped = true;
      }
    }

    if (failed) {
      ++result.unrouted_lines;
    } else {
      route.cells = tree_cells;
      for (const Point& p : tree_cells) used.insert(p);
    }
    result.routes.push_back(std::move(route));
  }
  return result;
}

}  // namespace fbmb
