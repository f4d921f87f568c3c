// String helpers shared by every hand-rolled JSON writer (result I/O,
// telemetry, the service protocol, the benches): string escaping and the
// %.9g number format.

#pragma once

#include <string>

namespace fbmb {

/// Escapes a string for inclusion in a JSON document (quotes included).
std::string json_quote(const std::string& value);

/// A double as the report and telemetry JSON write it: %.9g.
std::string json_number(double value);

}  // namespace fbmb
