// Lossless JSON round-trip of SynthesisResult, used by the result cache's
// spill-to-disk and loadable by external tooling. The schema is the field
// lists in result_io.cpp: one per record, naming each key once in output
// order, run by both the writer and the reader; docs/RUNTIME.md gives the
// rules a spill entry must meet to load. Doubles are written as %.17g
// writes them, via std::to_chars, which unlike printf does not depend on
// the C locale. Every IEEE-754 value round-trips bit-exactly: a result
// loaded from disk is indistinguishable from the freshly computed one.
//
// The reader is a small recursive-descent JSON parser (objects, arrays,
// strings, numbers, booleans, null) — enough for documents this module and
// the report layer emit; it is not a general-purpose validating parser. It
// is exposed (namespace jsonio) so the result cache can parse its spill
// envelope and the service layer can parse request bodies with the same
// machinery. Because those bytes are untrusted, the parser is hardened to
// fail cleanly (nullopt, never a crash or deep throw): nesting is capped
// (96 levels), \u escapes require exactly four hex digits and decode to
// UTF-8 (a surrogate pair to one code point; a lone or reversed surrogate
// fails), and numbers must be JSON-shaped (no inf/nan/hex-float
// spellings).

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/synthesis.hpp"

namespace fbmb {

namespace jsonio {

/// A parsed JSON value. Object members keep insertion order.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// First member named `key`, or nullptr (valid on objects only).
  const Value* find(std::string_view key) const;
};

/// Parses a complete JSON document; nullopt on any syntax error.
std::optional<Value> parse(const std::string& text);

}  // namespace jsonio

/// The complete result as one JSON object.
std::string synthesis_result_to_json(const SynthesisResult& result);

/// Appends synthesis_result_to_json(result) to `out`.
void append_synthesis_result_json(std::string& out,
                                  const SynthesisResult& result);

/// Inverse of synthesis_result_to_json. Returns nullopt on malformed or
/// schema-incompatible input.
std::optional<SynthesisResult> synthesis_result_from_json(
    const std::string& json);

/// Same, from an already-parsed JSON object.
std::optional<SynthesisResult> synthesis_result_from_value(
    const jsonio::Value& root);

}  // namespace fbmb
