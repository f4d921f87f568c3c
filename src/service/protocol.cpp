#include "service/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "bench_suite/benchmarks.hpp"
#include "graph/assay_parser.hpp"
#include "report/json.hpp"
#include "runtime/result_io.hpp"

namespace fbmb::service {

namespace {

std::string lowercase(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// Bound on each count of an inline assay's allocate line, the bound
/// "restarts" has. Allocation builds one component per count on the
/// connection thread, so an unbounded count lets one request claim
/// unbounded memory there.
constexpr int kMaxAllocateCount = 64;

/// Reads an optional finite number member; false only on a type error.
bool read_number(const jsonio::Value& root, const char* key, double& out,
                 bool& present, std::string& error) {
  present = false;
  const jsonio::Value* v = root.find(key);
  if (v == nullptr) return true;
  if (v->kind != jsonio::Value::Kind::kNumber || !std::isfinite(v->num)) {
    error = std::string("\"") + key + "\" must be a finite number";
    return false;
  }
  out = v->num;
  present = true;
  return true;
}

}  // namespace

std::optional<SynthesizeRequest> parse_synthesize_request(
    const std::string& body, std::string& error) {
  const std::optional<jsonio::Value> root = jsonio::parse(body);
  if (!root || root->kind != jsonio::Value::Kind::kObject) {
    error = "body is not a JSON object";
    return std::nullopt;
  }

  SynthesizeRequest req;
  const jsonio::Value* benchmark = root->find("benchmark");
  const jsonio::Value* assay = root->find("assay");
  if ((benchmark != nullptr) == (assay != nullptr)) {
    error = "exactly one of \"benchmark\" or \"assay\" is required";
    return std::nullopt;
  }
  if (benchmark != nullptr) {
    if (benchmark->kind != jsonio::Value::Kind::kString) {
      error = "\"benchmark\" must be a string";
      return std::nullopt;
    }
    std::optional<Benchmark> found = find_benchmark(benchmark->str);
    if (!found) {
      error = "unknown benchmark \"" + benchmark->str + "\"";
      return std::nullopt;
    }
    req.job.name = found->name;
    req.job.graph = std::move(found->graph);
    req.job.allocation = Allocation(found->allocation);
    req.job.wash = std::move(found->wash);
  } else {
    if (assay->kind != jsonio::Value::Kind::kString) {
      error = "\"assay\" must be a string";
      return std::nullopt;
    }
    try {
      ParsedAssay parsed = parse_assay(assay->str);
      if (!parsed.has_allocation) {
        error = "assay text must contain an allocate line";
        return std::nullopt;
      }
      const AllocationSpec& counts = parsed.allocation;
      if (std::max({counts.mixers, counts.heaters, counts.filters,
                    counts.detectors}) > kMaxAllocateCount) {
        error = "assay: allocate counts must be at most " +
                std::to_string(kMaxAllocateCount);
        return std::nullopt;
      }
      req.job.name = "assay";
      req.job.graph = std::move(parsed.graph);
      req.job.allocation = Allocation(parsed.allocation);
      req.job.wash = std::move(parsed.wash);
    } catch (const AssayParseError& e) {
      error = std::string("assay: ") + e.what();
      return std::nullopt;
    }
  }

  if (const jsonio::Value* name = root->find("name"); name != nullptr) {
    if (name->kind != jsonio::Value::Kind::kString) {
      error = "\"name\" must be a string";
      return std::nullopt;
    }
    req.job.name = name->str;
  }

  req.job.flow = FlowPreset::kDcsa;
  if (const jsonio::Value* flow = root->find("flow"); flow != nullptr) {
    if (flow->kind != jsonio::Value::Kind::kString) {
      error = "\"flow\" must be a string";
      return std::nullopt;
    }
    const std::string which = lowercase(flow->str);
    if (which == "dcsa") {
      req.job.flow = FlowPreset::kDcsa;
    } else if (which == "baseline") {
      req.job.flow = FlowPreset::kBaseline;
    } else {
      error = "\"flow\" must be dcsa or baseline";
      return std::nullopt;
    }
  }

  double value = 0.0;
  bool present = false;
  if (!read_number(*root, "seed", value, present, error)) return std::nullopt;
  if (present) {
    // 2^64: any double below it converts to std::uint64_t ([conv.fpint]).
    if (value < 0.0 || value >= 18446744073709551616.0) {
      error = "\"seed\" must be in [0, 2^64)";
      return std::nullopt;
    }
    req.job.options.placer.seed = static_cast<std::uint64_t>(value);
  }
  if (!read_number(*root, "restarts", value, present, error)) {
    return std::nullopt;
  }
  if (present) {
    if (value < 1.0 || value > 64.0) {
      error = "\"restarts\" must be in [1, 64]";
      return std::nullopt;
    }
    req.job.options.placer.restarts = static_cast<int>(value);
  }
  if (!read_number(*root, "timeout_ms", value, present, error)) {
    return std::nullopt;
  }
  if (present) {
    // The server arms the deadline in nanoseconds as a std::int64_t, so
    // timeout_ms * 1e6 must stay below 2^63.
    if (value < 0.0 || value * 1e6 >= 9223372036854775808.0) {
      error = "\"timeout_ms\" must be in [0, 2^63 ns)";
      return std::nullopt;
    }
    req.timeout_ms = value;
  }
  if (!read_number(*root, "stall_ms", value, present, error)) {
    return std::nullopt;
  }
  if (present) {
    if (value < 0.0 || value > 60000.0) {
      error = "\"stall_ms\" must be in [0, 60000]";
      return std::nullopt;
    }
    req.stall_ms = static_cast<int>(value);
  }
  if (const jsonio::Value* trace = root->find("trace")) {
    if (trace->kind != jsonio::Value::Kind::kBool) {
      error = "\"trace\" must be a boolean";
      return std::nullopt;
    }
    req.trace = trace->b;
  }
  return req;
}

std::string error_body(const std::string& message,
                       const std::string& stage) {
  std::ostringstream os;
  os << "{\"error\": " << json_quote(message);
  if (!stage.empty()) os << ", \"stage\": " << json_quote(stage);
  os << "}";
  return os.str();
}

std::string synthesize_body(const JobOutcome& outcome,
                            const std::string& inline_trace_json) {
  // The members other than name, trace and result fit in this many bytes.
  constexpr std::size_t kFixedBytes = 256;
  const std::string name = json_quote(outcome.name);
  const std::string* stored = outcome.entry ? &outcome.entry->json() : nullptr;
  std::string body;
  body.reserve(kFixedBytes + name.size() + inline_trace_json.size() +
               (stored ? stored->size() : 0));
  char number[32];
  body += "{\"name\": ";
  body += name;
  body += ", \"fingerprint\": \"";
  body += outcome.fingerprint.to_hex();
  body += "\", \"cache_hit\": ";
  body += outcome.cache_hit ? "true" : "false";
  body += ", \"wall_seconds\": ";
  // Written as %.9g writes it.
  body.append(number, std::to_chars(number, number + sizeof(number),
                                    outcome.wall_seconds,
                                    std::chars_format::general, 9)
                          .ptr);
  if (outcome.trace_id != 0) {
    // As a decimal string: 64-bit ids don't survive a double round-trip.
    body += ", \"trace_id\": \"";
    body.append(number,
                std::to_chars(number, number + sizeof(number),
                              outcome.trace_id)
                    .ptr);
    body += '"';
  }
  if (!inline_trace_json.empty()) {
    body += ", \"trace\": ";
    body += inline_trace_json;
  }
  body += ", \"result\": ";
  if (stored) {
    body += *stored;
  } else {
    append_synthesis_result_json(body, outcome.result);
  }
  body += '}';
  return body;
}

}  // namespace fbmb::service
