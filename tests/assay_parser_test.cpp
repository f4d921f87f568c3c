#include "graph/assay_parser.hpp"

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "util/rng.hpp"

namespace fbmb {
namespace {

constexpr const char* kSample = R"(# a small assay
op a mix 5 wash=2
op b mix 6 d=5e-8
op c detect 3

dep a c
dep b c
allocate 2 0 0 1
)";

TEST(AssayParser, ParsesOperations) {
  const ParsedAssay parsed = parse_assay(kSample);
  ASSERT_EQ(parsed.graph.operation_count(), 3u);
  const auto& a = parsed.graph.operation(OperationId{0});
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.type, ComponentType::kMixer);
  EXPECT_DOUBLE_EQ(a.duration, 5.0);
  const auto& b = parsed.graph.operation(OperationId{1});
  EXPECT_DOUBLE_EQ(b.output.diffusion_coefficient, 5e-8);
  const auto& c = parsed.graph.operation(OperationId{2});
  EXPECT_EQ(c.type, ComponentType::kDetector);
  EXPECT_DOUBLE_EQ(c.output.diffusion_coefficient,
                   diffusion::kSmallMolecule);  // default fluid
}

TEST(AssayParser, WashAttributeRegistersOverride) {
  const ParsedAssay parsed = parse_assay(kSample);
  const auto& a = parsed.graph.operation(OperationId{0});
  EXPECT_DOUBLE_EQ(parsed.wash.wash_time(a.output), 2.0);
}

TEST(AssayParser, ParsesDependenciesAndAllocation) {
  const ParsedAssay parsed = parse_assay(kSample);
  EXPECT_EQ(parsed.graph.dependency_count(), 2u);
  EXPECT_TRUE(parsed.graph.has_dependency(OperationId{0}, OperationId{2}));
  ASSERT_TRUE(parsed.has_allocation);
  EXPECT_EQ(parsed.allocation, (AllocationSpec{2, 0, 0, 1}));
}

TEST(AssayParser, AllocationIsOptional) {
  const ParsedAssay parsed = parse_assay("op x mix 1\n");
  EXPECT_FALSE(parsed.has_allocation);
}

TEST(AssayParser, CommentsAndBlanksIgnored) {
  const ParsedAssay parsed =
      parse_assay("\n# full comment\nop x mix 1  # trailing\n\n");
  EXPECT_EQ(parsed.graph.operation_count(), 1u);
}

TEST(AssayParser, TokenizesLikeAStream) {
  // Fields split on the C locale's whitespace set, as a stream's >> does,
  // and a field starting with '#' ends the line.
  constexpr const char* kPlain =
      "op x mix 1\nop y detect 2 wash=3\ndep x y\nallocate 1 0 0 1\n";
  const auto text_of = [](const std::string& assay) {
    const ParsedAssay parsed = parse_assay(assay);
    return write_assay(parsed.graph, &parsed.allocation, &parsed.wash);
  };
  const std::string want = text_of(kPlain);
  for (const char* spelling : {
           // tabs between fields
           "op\tx\tmix\t1\nop y\tdetect 2\twash=3\ndep\tx y\n"
           "allocate 1\t0 0\t1\n",
           // CRLF line ends
           "op x mix 1\r\nop y detect 2 wash=3\r\ndep x y\r\n"
           "allocate 1 0 0 1\r\n",
           // vertical tab and form feed
           "op\vx mix\f1\nop y detect 2 wash=3\f\ndep x\vy\n"
           "allocate 1 0 0 1\n",
           // leading whitespace and whitespace-only lines
           "  op x mix 1\n \t \n\top y detect 2 wash=3\n\r\n"
           "\v\f\n dep x y\nallocate 1 0 0 1\n",
           // '#' directly after a field
           "op x mix 1 #c\nop y detect 2 wash=3\t#c\ndep x y\t#c\n"
           "allocate 1 0 0 1 #c\n",
       }) {
    EXPECT_EQ(text_of(spelling), want) << spelling;
  }
  // A '#' inside a field is part of it, not a comment.
  try {
    parse_assay("op x mix 1#c\n");
    FAIL() << "expected AssayParseError";
  } catch (const AssayParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_STREQ(e.what(), "line 1: invalid duration '1#c'");
  }
}

TEST(AssayParser, ErrorsCarryLineNumbers) {
  try {
    parse_assay("op a mix 1\nbogus directive\n");
    FAIL() << "expected AssayParseError";
  } catch (const AssayParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(AssayParser, RejectsBadType) {
  EXPECT_THROW(parse_assay("op a blend 1\n"), AssayParseError);
}

TEST(AssayParser, RejectsBadDuration) {
  EXPECT_THROW(parse_assay("op a mix fast\n"), AssayParseError);
}

TEST(AssayParser, RejectsDuplicateOperation) {
  EXPECT_THROW(parse_assay("op a mix 1\nop a mix 2\n"), AssayParseError);
}

TEST(AssayParser, RejectsUnknownDependencyEndpoint) {
  EXPECT_THROW(parse_assay("op a mix 1\ndep a ghost\n"), AssayParseError);
}

TEST(AssayParser, RejectsDuplicateDependency) {
  EXPECT_THROW(parse_assay("op a mix 1\nop b mix 1\ndep a b\ndep a b\n"),
               AssayParseError);
}

TEST(AssayParser, RejectsCycle) {
  EXPECT_THROW(parse_assay("op a mix 1\nop b mix 1\ndep a b\ndep b a\n"),
               AssayParseError);
}

TEST(AssayParser, RejectsBadAllocation) {
  EXPECT_THROW(parse_assay("allocate 1 2 3\n"), AssayParseError);
  EXPECT_THROW(parse_assay("allocate 1 2 3 -4\n"), AssayParseError);
  EXPECT_THROW(parse_assay("allocate 1 1 1 1\nallocate 1 1 1 1\n"),
               AssayParseError);
}

TEST(AssayParser, RejectsUnknownAttribute) {
  EXPECT_THROW(parse_assay("op a mix 1 color=blue\n"), AssayParseError);
}

TEST(AssayParser, RoundTripsThroughWriter) {
  const auto bench = make_ivd();
  const std::string text =
      write_assay(bench.graph, &bench.allocation, &bench.wash);
  const ParsedAssay reparsed = parse_assay(text);
  ASSERT_EQ(reparsed.graph.operation_count(),
            bench.graph.operation_count());
  EXPECT_EQ(reparsed.graph.dependency_count(),
            bench.graph.dependency_count());
  EXPECT_EQ(reparsed.allocation, bench.allocation);
  for (std::size_t i = 0; i < bench.graph.operation_count(); ++i) {
    const OperationId id{static_cast<int>(i)};
    EXPECT_EQ(reparsed.graph.operation(id).name,
              bench.graph.operation(id).name);
    EXPECT_EQ(reparsed.graph.operation(id).type,
              bench.graph.operation(id).type);
    EXPECT_DOUBLE_EQ(reparsed.graph.operation(id).duration,
                     bench.graph.operation(id).duration);
    EXPECT_NEAR(
        reparsed.wash.wash_time(reparsed.graph.operation(id).output),
        bench.wash.wash_time(bench.graph.operation(id).output), 1e-5);
  }
}

TEST(AssayParser, WriterWithoutWashUsesCoefficients) {
  const auto bench = make_pcr();
  const std::string text = write_assay(bench.graph);
  EXPECT_NE(text.find("d="), std::string::npos);
  EXPECT_EQ(text.find("allocate"), std::string::npos);
  const ParsedAssay reparsed = parse_assay(text);
  EXPECT_EQ(reparsed.graph.operation_count(), 7u);
}

TEST(AssayParserFuzz, GarbageNeverCrashesAlwaysThrowsParseError) {
  // Random byte soup must either parse (vanishingly unlikely) or throw
  // AssayParseError — never crash, never throw anything else.
  Rng rng(0xF00D);
  const char kAlphabet[] =
      "op dep allocate mix heat detect filter wash= d= 0123456789.\n\t #";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const int length = rng.uniform_int(0, 160);
    for (int i = 0; i < length; ++i) {
      text += kAlphabet[rng.bounded(sizeof(kAlphabet) - 1)];
    }
    try {
      (void)parse_assay(text);
    } catch (const AssayParseError&) {
      // expected for malformed input
    }
  }
  SUCCEED();
}

TEST(AssayParserFuzz, MutatedValidFilesBehaveSanely) {
  // Start from a valid file and inject single-character mutations.
  const auto bench = make_ivd();
  const std::string base =
      write_assay(bench.graph, &bench.allocation, &bench.wash);
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    std::string text = base;
    const auto pos = rng.bounded(text.size());
    text[pos] = static_cast<char>('!' + rng.bounded(90));
    try {
      const ParsedAssay parsed = parse_assay(text);
      // If it still parses, the graph must still be valid.
      EXPECT_FALSE(parsed.graph.validate().has_value());
    } catch (const AssayParseError&) {
      // fine
    }
  }
}

}  // namespace
}  // namespace fbmb
