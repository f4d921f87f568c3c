#include "report/json.hpp"

#include <gtest/gtest.h>

namespace fbmb {
namespace {

TEST(JsonQuote, PlainString) {
  EXPECT_EQ(json_quote("abc"), "\"abc\"");
  EXPECT_EQ(json_quote(""), "\"\"");
}

TEST(JsonQuote, EscapesSpecials) {
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(json_quote("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

}  // namespace
}  // namespace fbmb
