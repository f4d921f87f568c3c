// The /synthesize request/response JSON protocol (docs/SERVICE.md).
//
// A request selects a workload either by named benchmark ("benchmark":
// "PCR", any Table-I or extended name, case-insensitive) or by inline
// assay text ("assay": the graph/assay_parser format, which must carry an
// `allocate` line with no count above 64), plus a flow preset,
// seed/restart overrides, an optional per-request deadline, and an
// optional server-side stall used only by load tests. Parsing uses the
// hardened jsonio parser — the body is untrusted bytes — and returns a
// human-readable error instead of throwing.
//
// Responses carry the runtime's lossless result JSON, so a served result
// is byte-identical to synthesis_result_to_json() of the same library
// call at the same seed. An engine outcome's cache entry stores those
// bytes once, and every response that entry answers appends them.

#pragma once

#include <optional>
#include <string>

#include "runtime/synthesis_engine.hpp"

namespace fbmb::service {

struct SynthesizeRequest {
  SynthesisJob job;
  double timeout_ms = 0.0;  ///< 0 = no deadline
  int stall_ms = 0;  ///< server-side artificial latency (load tests only)
  /// Force tracing on for this request and return its events inline
  /// (bounded Chrome-trace JSON under the response "trace" key).
  bool trace = false;
};

/// Parses a POST /synthesize body. On failure returns nullopt and sets
/// `error` to the reason (served back as the 400 body).
std::optional<SynthesizeRequest> parse_synthesize_request(
    const std::string& body, std::string& error);

/// {"error": <message>} (+ optional "stage").
std::string error_body(const std::string& message,
                       const std::string& stage = {});

/// The 200 body: name, fingerprint, cache_hit, wall_seconds, and the full
/// lossless result object: the entry's stored JSON, or `outcome.result`
/// written out when the outcome has no entry. When the outcome carries a
/// trace id, a "trace_id" field is added; a non-empty `inline_trace_json`
/// (a complete Chrome-trace document) is embedded verbatim under "trace".
std::string synthesize_body(const JobOutcome& outcome,
                            const std::string& inline_trace_json = {});

}  // namespace fbmb::service
