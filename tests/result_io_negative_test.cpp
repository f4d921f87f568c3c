// Negative coverage for the hardened jsonio parser and the result reader:
// these paths consume untrusted bytes (cache spill files, service request
// bodies), so every malformed input must yield nullopt — never a crash, a
// hang, or a deep exception.

#include "runtime/result_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "runtime/result_cache.hpp"

namespace fbmb {
namespace {

TEST(JsonioNegative, RejectsSyntaxErrors) {
  for (const char* text : {
           "",
           "   ",
           "{",
           "}",
           "[1, 2",
           "{\"a\": }",
           "{\"a\" 1}",
           "{\"a\": 1,}",
           "[1, 2,]",
           "{\"a\": 1} trailing",
           "\"unterminated",
           "nul",
           "tru",
           "TRUE",
           "'single'",
           "{\"dup\" \"colonless\"}",
       }) {
    EXPECT_FALSE(jsonio::parse(text).has_value()) << "input: " << text;
  }
}

TEST(JsonioNegative, RejectsMalformedNumbers) {
  for (const char* text : {
           "+1",        // leading plus
           "-",         // bare sign
           "1.2.3",     // double dot
           "0x10",      // hex int
           "0x1p4",     // hex float (strtod would take it)
           "inf",       // not JSON
           "-inf",      //
           "nan",       //
           "1e",        // dangling exponent
           ".5",        // no integer part
       }) {
    EXPECT_FALSE(jsonio::parse(text).has_value()) << "input: " << text;
  }
  // Sanity: the shapes JSON does allow still parse.
  for (const char* text : {"0", "-0.5", "1e9", "2.5E-3", "1234567"}) {
    EXPECT_TRUE(jsonio::parse(text).has_value()) << "input: " << text;
  }
}

TEST(JsonioNegative, RejectsBadUnicodeEscapes) {
  for (const char* text : {
           R"("\u12")",           // too short
           R"("\u12zz")",         // non-hex
           R"("\u")",             // nothing
           R"("\x41")",           // unsupported escape
           // A surrogate escape has a UTF-8 form only as half of a
           // high-then-low pair.
           R"("\ud800")",         // lone high surrogate
           R"("\udc00")",         // lone low surrogate
           R"("\ude00\ud83d")",   // reversed pair
           R"("\ud83d\u0041")",   // high surrogate, then no low one
           R"("\ud83dx")",        // high surrogate, then a plain byte
           R"("\ud83d\n")",       // high surrogate, then another escape
           R"("\ud83d\ud83d")",   // two high surrogates
       }) {
    EXPECT_FALSE(jsonio::parse(text).has_value()) << "input: " << text;
  }
  EXPECT_TRUE(jsonio::parse(R"("Aok")").has_value());
}

TEST(JsonioNegative, UnicodeEscapesDecodeToUtf8) {
  const auto decoded = [](const char* text) -> std::optional<std::string> {
    const std::optional<jsonio::Value> v = jsonio::parse(text);
    if (!v) return std::nullopt;
    return v->str;
  };
  EXPECT_EQ(decoded(R"("\u0141")"), "\xC5\x81");
  EXPECT_EQ(decoded(R"("\u4e2d")"), "\xE4\xB8\xAD");
  EXPECT_EQ(decoded(R"("\ud83d\ude00")"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(decoded(R"("\uFFFF")"), "\xEF\xBF\xBF");
  EXPECT_EQ(decoded(R"("\udbff\udfff")"), "\xF4\x8F\xBF\xBF");
  // The writers escape control characters as \u00XX; those read back as
  // the byte itself, NUL included.
  EXPECT_EQ(decoded(R"("a\u001fb\u0000")"), std::string("a\x1f" "b\0", 4));
  EXPECT_EQ(decoded(R"("\u007f\u0080")"), "\x7F\xC2\x80");
}

TEST(JsonioNegative, DeepNestingFailsCleanlyInsteadOfOverflowing) {
  // 95 levels is within the cap; 4096 would smash the stack without it.
  const std::string shallow =
      std::string(95, '[') + "1" + std::string(95, ']');
  EXPECT_TRUE(jsonio::parse(shallow).has_value());

  const std::string deep_arrays =
      std::string(4096, '[') + "1" + std::string(4096, ']');
  EXPECT_FALSE(jsonio::parse(deep_arrays).has_value());

  std::string deep_objects;
  for (int i = 0; i < 4096; ++i) deep_objects += "{\"k\": ";
  deep_objects += "1";
  for (int i = 0; i < 4096; ++i) deep_objects += "}";
  EXPECT_FALSE(jsonio::parse(deep_objects).has_value());
}

TEST(ResultIoNegative, EveryTruncationOfAValidResultIsRejected) {
  // A real result document, chopped at every 97th byte: the reader must
  // return nullopt for each prefix (the full document still loads).
  Benchmark pcr = make_pcr();
  const SynthesisResult result =
      synthesize_dcsa(pcr.graph, Allocation(pcr.allocation), pcr.wash);
  const std::string json = synthesis_result_to_json(result);
  ASSERT_TRUE(synthesis_result_from_json(json).has_value());

  for (std::size_t cut = 0; cut + 1 < json.size(); cut += 97) {
    EXPECT_FALSE(
        synthesis_result_from_json(json.substr(0, cut)).has_value())
        << "prefix length " << cut;
  }
}

TEST(ResultIoNegative, RejectsSchemaViolations) {
  for (const char* text : {
           "{}",                                // all fields missing
           "[]",                                // not an object
           "42",                                // not an object
           R"({"completion_time": "fast"})",    // wrong type
           R"({"completion_time": 1.0})",       // rest missing
       }) {
    EXPECT_FALSE(synthesis_result_from_json(text).has_value())
        << "input: " << text;
  }
}

TEST(ResultIoNegative, CorruptedFieldInsideValidDocumentIsRejected) {
  Benchmark pcr = make_pcr();
  const SynthesisResult result =
      synthesize_dcsa(pcr.graph, Allocation(pcr.allocation), pcr.wash);
  std::string json = synthesis_result_to_json(result);

  // Turn the schedule array into a string: structurally valid JSON,
  // schema-invalid result.
  const std::size_t at = json.find("\"schedule\": ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t value_at = at + std::string("\"schedule\": ").size();
  std::string corrupted = json.substr(0, value_at) + "\"gone\"";
  // Drop everything up to the next top-level key by rebuilding the tail.
  const std::size_t tail = json.find(", \"placement\":", value_at);
  ASSERT_NE(tail, std::string::npos);
  corrupted += json.substr(tail);
  EXPECT_FALSE(synthesis_result_from_json(corrupted).has_value());
}

/// `json` with the number that follows the first `after` replaced by
/// `value`.
std::string replace_number(std::string json, std::string_view after,
                           std::string_view value) {
  const std::size_t at = json.find(after);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + after.size();
  const std::size_t end = json.find_first_not_of("-+.eE0123456789", begin);
  return json.replace(begin, end - begin, value);
}

TEST(ResultIoNegative, OutOfRangeOrFractionalIntegersAreRejected) {
  // An integer field must hold an integer its type represents; anything
  // else is malformed, never cast (1e400 parses as inf, and casting it or
  // 1e10 to int, or -1 to a counter, is undefined).
  Benchmark pcr = make_pcr();
  const SynthesisResult result =
      synthesize_dcsa(pcr.graph, Allocation(pcr.allocation), pcr.wash);
  const std::string json = synthesis_result_to_json(result);
  ASSERT_FALSE(result.routing.paths.empty());

  std::vector<std::string> corrupted;
  for (const char* field : {"\"op\": ", "\"x\": ", "\"cells\": [["}) {
    for (const char* value : {"1e400", "1e10", "-1e12", "3.5"}) {
      corrupted.push_back(replace_number(json, field, value));
      ASSERT_NE(corrupted.back(), json) << field << value;
      EXPECT_FALSE(synthesis_result_from_json(corrupted.back()).has_value())
          << field << value;
    }
  }
  for (const char* value : {"-1", "1e30"}) {
    corrupted.push_back(replace_number(json, "\"proposals\": ", value));
    ASSERT_NE(corrupted.back(), json) << value;
    EXPECT_FALSE(synthesis_result_from_json(corrupted.back()).has_value())
        << "proposals " << value;
  }

  // A spill holding the intact result (key 0) and every corrupted copy
  // (keys 1..n) loads the intact entry alone.
  const std::string path =
      ::testing::TempDir() + "msynth_out_of_range_spill.json";
  {
    std::ofstream out(path);
    out << "{\"format\": \"msynth-result-cache\", \"version\": 1, "
           "\"entries\": [\n{\"fingerprint\": \""
        << Fingerprint{0, 0}.to_hex() << "\", \"result\": " << json << "}";
    for (std::size_t i = 0; i < corrupted.size(); ++i) {
      out << ",\n{\"fingerprint\": \"" << Fingerprint{i + 1, 0}.to_hex()
          << "\", \"result\": " << corrupted[i] << "}";
    }
    out << "\n]}\n";
  }
  ResultCache cache(64);
  EXPECT_EQ(cache.load_json(path), 1u);
  EXPECT_TRUE(cache.lookup(Fingerprint{0, 0}).has_value());
  for (std::size_t i = 0; i < corrupted.size(); ++i) {
    EXPECT_FALSE(cache.lookup(Fingerprint{i + 1, 0}).has_value()) << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fbmb
