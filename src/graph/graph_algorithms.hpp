// Sequencing-graph algorithms used by the scheduler.
//
// The list scheduler's priority value of an operation is the length of the
// longest path from the operation to the sink (Section IV-A): the sum of
// execution times along the path plus one transportation-time constant t_c
// per traversed edge. The paper's example: with t_c = 2, priority(o1) = 21
// for the Fig. 2(a) bioassay.

#pragma once

#include <string>
#include <vector>

#include "graph/sequencing_graph.hpp"

namespace fbmb {

/// Longest path length from each operation to any sink, where the path
/// weight is the sum of the durations of the operations on it plus
/// `transport_time` per edge. Indexed by OperationId::value.
std::vector<double> longest_path_to_sink(const SequencingGraph& graph,
                                         double transport_time);

/// Number of operations of each component type, indexed by ComponentType.
std::vector<int> operation_type_histogram(const SequencingGraph& graph);

/// Disjoint union of several bioassays into one sequencing graph, for
/// concurrent execution on a shared chip ("hundreds of such assays can be
/// integrated ... and processed concurrently", Section I). Operation names
/// are prefixed ("a1:", "a2:", ... or the given prefixes) to stay unique.
SequencingGraph merge_graphs(
    const std::vector<const SequencingGraph*>& graphs,
    const std::vector<std::string>& prefixes = {});

}  // namespace fbmb
