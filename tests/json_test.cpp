// Unit tests for util/json: string escaping and the small parser backing
// the metrics export / dss_report pipeline.
#include <gtest/gtest.h>

#include "util/json.hpp"

namespace dss::util {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("fig2_thread_time"), "fig2_thread_time");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape("\r\b\f"), "\\r\\b\\f");
}

TEST(JsonEscape, BenchmarkFixtureNamesRoundTrip) {
  // google-benchmark names contain '/' and '<...>' freely; template-heavy
  // fixtures can contain quotes. The escaped form must parse back exactly.
  const std::string name = "BM_Scan<Fixture<\"q6\">>/64/real_time";
  const Json doc = json_parse("{\"name\": \"" + json_escape(name) + "\"}");
  EXPECT_EQ(doc.get("name")->as_string(), name);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_EQ(json_parse("true").as_bool(), true);
  EXPECT_EQ(json_parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(json_parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(json_parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(json_parse("6.02e23").as_number(), 6.02e23);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, NestedContainers) {
  const Json doc = json_parse(
      R"({"cells": [{"nproc": 4, "ok": true}, {"nproc": 8, "ok": false}]})");
  const Json* cells = doc.get("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(cells->as_array()[1].get("nproc")->as_number(), 8.0);
  EXPECT_FALSE(cells->as_array()[1].get("ok")->as_bool());
  EXPECT_EQ(doc.get("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(json_parse(R"("a\"b\\c\nd")").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(json_parse(R"("A")").as_string(), "A");
  EXPECT_EQ(json_parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), JsonError);
  EXPECT_THROW(json_parse("{"), JsonError);
  EXPECT_THROW(json_parse("[1,]"), JsonError);
  EXPECT_THROW(json_parse("{\"a\": 1} trailing"), JsonError);
  EXPECT_THROW(json_parse("\"unterminated"), JsonError);
  EXPECT_THROW(json_parse("nul"), JsonError);
}

TEST(JsonParse, BoundsNestingDepth) {
  // A deeply nested document overflowed the parser's stack (SIGSEGV in
  // dss_report); past 256 levels it is a parse error.
  const auto nested = [](int n) {
    return std::string(n, '[') + std::string(n, ']');
  };
  EXPECT_NO_THROW(json_parse(nested(256)));
  EXPECT_THROW(json_parse(nested(257)), JsonError);
  EXPECT_THROW(json_parse(std::string(200'000, '[')), JsonError);
  EXPECT_THROW(json_parse(std::string(200'000, '{')), JsonError);
}

TEST(JsonParse, RejectsDuplicateKeys) {
  // Keeping the last value would make {"nproc": 4, "nproc": 8} read as 8.
  EXPECT_THROW(json_parse(R"({"nproc": 4, "nproc": 8})"), JsonError);
  EXPECT_THROW(json_parse(R"({"a": {"b": 1, "b": 1}})"), JsonError);
  EXPECT_NO_THROW(json_parse(R"({"a": {"b": 1}, "b": {"a": 1}})"));
}

TEST(JsonParse, TypeMismatchThrows) {
  const Json doc = json_parse("{\"n\": 3}");
  EXPECT_THROW((void)doc.as_array(), JsonError);
  EXPECT_THROW((void)doc.get("n")->as_string(), JsonError);
  EXPECT_DOUBLE_EQ(doc.get("n")->as_number(), 3.0);
}

}  // namespace
}  // namespace dss::util
