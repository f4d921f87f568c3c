// JSON export of synthesis results for downstream tooling (viewers,
// notebooks, diffing in CI). Hand-rolled writer — the schema is small and
// flat — with proper string escaping; no external dependencies.

#pragma once

#include <string>

#include "biochip/component_library.hpp"
#include "graph/sequencing_graph.hpp"
#include "schedule/types.hpp"

namespace fbmb {

struct SynthesisResult;  // core/synthesis.hpp; kept incomplete here so the
                         // report layer does not depend on the core layer.

/// Escapes a string for inclusion in a JSON document (quotes included).
std::string json_quote(const std::string& value);

/// A double as the report and telemetry JSON write it: %.9g.
std::string json_number(double value);

/// Schedule alone (operations, transports, washes, metrics).
std::string schedule_to_json(const Schedule& schedule,
                             const SequencingGraph& graph,
                             const Allocation& allocation);

}  // namespace fbmb
