// Tests for the JSON writer/parser and run-report serialization.
#include <gtest/gtest.h>

#include <string>

#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"

namespace dmpc {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectsPreserveOrderAndOverwrite) {
  auto j = Json::object();
  j.set("b", 1).set("a", 2).set("b", 3);
  EXPECT_EQ(j.dump(), "{\"b\":3,\"a\":2}");
}

TEST(Json, ArraysAndNesting) {
  auto arr = Json::array();
  arr.push(1).push("x").push(Json::object().set("k", Json::array()));
  EXPECT_EQ(arr.dump(), "[1,\"x\",{\"k\":[]}]");
}

TEST(Json, PrettyPrint) {
  auto j = Json::object().set("a", 1);
  EXPECT_EQ(j.dump(2), "{\n  \"a\": 1\n}");
}

TEST(Json, TypeMisuseThrows) {
  auto arr = Json::array();
  EXPECT_THROW(arr.set("k", 1), CheckFailure);
  auto obj = Json::object();
  EXPECT_THROW(obj.push(1), CheckFailure);
}

// --- Parser (the read half of the round trip scaling_check and the bench
// baselines depend on). ---

TEST(JsonParse, RoundTripIsByteIdentical) {
  const auto doc =
      Json::object()
          .set("schema_version", 1)
          .set("points",
               Json::array().push(Json::object().set("axis_value", 256).set(
                   "model", Json::object().set("rounds", 42))))
          .set("title", "e\"1\n")
          .set("ratio", 2.5)
          .set("flag", true)
          .set("nothing", Json());
  const std::string text = doc.dump();
  EXPECT_EQ(Json::parse(text).dump(), text);
  // Pretty-printing is whitespace-only: it collapses back to the same bytes.
  EXPECT_EQ(Json::parse(doc.dump(2)).dump(), text);
}

TEST(JsonParse, IntAndDoubleTokensStayDistinct) {
  // 2^53 + 1 is not representable as a double; the artifact contract
  // (integer-exact model counters) needs the int64 path.
  const Json big = Json::parse("9007199254740993");
  ASSERT_TRUE(big.is_int());
  EXPECT_EQ(big.as_int64(), std::int64_t{9007199254740993});
  EXPECT_EQ(big.dump(), "9007199254740993");
  EXPECT_TRUE(Json::parse("-7").is_int());
  EXPECT_TRUE(Json::parse("2.5").is_double());
  EXPECT_TRUE(Json::parse("1e3").is_double());
  EXPECT_TRUE(Json::parse("[1]").items()[0].is_int());
}

TEST(JsonParse, MalformedInputThrowsTypedErrors) {
  const struct {
    const char* text;
    ParseErrorCode code;
  } cases[] = {
      {"{\"a\":}", ParseErrorCode::kBadToken},     // '}' where a value starts
      {"[1,2,]", ParseErrorCode::kBadToken},       // trailing comma
      {"{\"a\":1", ParseErrorCode::kMalformedLine},  // truncated object
      {"1 2", ParseErrorCode::kMalformedLine},     // trailing data
      {"tru", ParseErrorCode::kBadToken},          // bad literal
  };
  for (const auto& c : cases) {
    try {
      Json::parse(c.text);
      ADD_FAILURE() << "no error for: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), c.code)
          << c.text << " -> " << parse_error_code_name(e.code());
    }
  }
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": ]\n}");
    ADD_FAILURE() << "no error";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 8u);
    EXPECT_FALSE(e.token().empty());
  }
}

TEST(JsonParse, DepthCapRejectsPathologicalNesting) {
  try {
    Json::parse(std::string(200, '['));
    ADD_FAILURE() << "no error";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kLimitExceeded);
  }
  // Deep-but-bounded nesting still parses.
  const Json ok = Json::parse(std::string(90, '[') + std::string(90, ']'));
  EXPECT_TRUE(ok.is_array());
}

TEST(ReportJson, SolveReportSerializesDeterministically) {
  const auto g = graph::gnm(128, 512, 1);
  const auto text = to_json(Solver().maximal_matching(g).report).dump();
  EXPECT_NE(text.find("\"rounds_by_label\""), std::string::npos);
  // Deterministic solves serialize identically.
  EXPECT_EQ(text, to_json(Solver().maximal_matching(g).report).dump());
}

}  // namespace
}  // namespace dmpc
