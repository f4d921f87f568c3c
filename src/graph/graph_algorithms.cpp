#include "graph/graph_algorithms.hpp"

#include <algorithm>
#include <cassert>

namespace fbmb {

std::vector<double> longest_path_to_sink(const SequencingGraph& graph,
                                         double transport_time) {
  const auto order = graph.topological_order();
  assert(order.has_value() && "graph must be acyclic");
  std::vector<double> dist(graph.operation_count(), 0.0);
  // Process in reverse topological order: children before parents.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const OperationId id = *it;
    const Operation& op = graph.operation(id);
    double best_child = 0.0;
    for (OperationId child : graph.children(id)) {
      best_child = std::max(
          best_child,
          transport_time + dist[static_cast<std::size_t>(child.value)]);
    }
    dist[static_cast<std::size_t>(id.value)] = op.duration + best_child;
  }
  return dist;
}

std::vector<int> operation_type_histogram(const SequencingGraph& graph) {
  std::vector<int> histogram(kComponentTypeCount, 0);
  for (const auto& op : graph.operations()) {
    ++histogram[static_cast<std::size_t>(op.type)];
  }
  return histogram;
}

SequencingGraph merge_graphs(
    const std::vector<const SequencingGraph*>& graphs,
    const std::vector<std::string>& prefixes) {
  SequencingGraph merged;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const SequencingGraph& source = *graphs[g];
    const std::string prefix = g < prefixes.size()
                                   ? prefixes[g]
                                   : std::string("a")
                                         .append(std::to_string(g + 1))
                                         .append(":");
    // Dense-id sources map 1:1 onto a contiguous block of merged ids.
    const int offset = static_cast<int>(merged.operation_count());
    for (const auto& op : source.operations()) {
      merged.add_operation(prefix + op.name, op.type, op.duration,
                           op.output);
    }
    for (const auto& dep : source.dependencies()) {
      merged.add_dependency(OperationId{offset + dep.from.value},
                            OperationId{offset + dep.to.value});
    }
  }
  return merged;
}

}  // namespace fbmb
