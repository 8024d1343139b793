// The untrusted-input boundary: every malformed byte stream raises a typed
// ParseError with a code, location, and token — never a raw DMPC_CHECK
// failure, never a silent misread (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "graph/io.hpp"
#include "support/options.hpp"
#include "support/parse_error.hpp"

namespace dmpc {
namespace {

using graph::DuplicatePolicy;
using graph::EdgeListLimits;
using graph::Graph;

Graph read(const std::string& text, const EdgeListLimits& limits = {}) {
  std::istringstream in(text);
  return graph::read_edge_list(in, limits);
}

ParseError capture(const std::string& text,
                   const EdgeListLimits& limits = {}) {
  try {
    read(text, limits);
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError for input: " << text;
  return ParseError(ParseErrorCode::kIoError, "unreachable");
}

TEST(IoHardening, WellFormedInputStillParses) {
  const Graph g = read("3 2\n0 1\n1 2\n");
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(IoHardening, CrlfAndCommentsAreAccepted) {
  const Graph g = read("3 2\r\n0 1 # first\r\n# full comment\n1 2\r\n");
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(IoHardening, TruncatedLineIsMalformed) {
  const ParseError e = capture("3 2\n0 1\n1\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kMalformedLine);
  EXPECT_EQ(e.line(), 3u);
}

TEST(IoHardening, ThreeTokensIsMalformedAndNamesTheExtraToken) {
  const ParseError e = capture("3 1\n0 1 2\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kMalformedLine);
  EXPECT_EQ(e.line(), 2u);
  EXPECT_EQ(e.token(), "2");
  EXPECT_EQ(e.column(), 5u);
}

TEST(IoHardening, NonNumericTokenIsBadToken) {
  const ParseError e = capture("3 1\nzero 1\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kBadToken);
  EXPECT_EQ(e.line(), 2u);
  EXPECT_EQ(e.token(), "zero");
}

TEST(IoHardening, SixtyFourBitOverflowHeaderIsTyped) {
  // 2^64 = 18446744073709551616 does not fit a u64: overflow, not garbage.
  const ParseError e = capture("18446744073709551616 1\n0 1\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kOverflow);
  EXPECT_EQ(e.line(), 1u);
}

TEST(IoHardening, ZeroNodesIsBadHeader) {
  const ParseError e = capture("0 0\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kBadHeader);
}

TEST(IoHardening, EmptyInputIsBadHeader) {
  EXPECT_EQ(capture("").code(), ParseErrorCode::kBadHeader);
  EXPECT_EQ(capture("# only comments\n\n").code(), ParseErrorCode::kBadHeader);
}

TEST(IoHardening, HugeDeclaredNodeCountHitsTheCap) {
  EdgeListLimits limits;
  limits.max_nodes = 1000;
  const ParseError e = capture("1001 0\n", limits);
  EXPECT_EQ(e.code(), ParseErrorCode::kLimitExceeded);
  // The near-2^32 header passes the format check but hits the default cap
  // (2^28) without attempting a 4-billion-node allocation.
  const ParseError big = capture("4294967294 0\n");
  EXPECT_EQ(big.code(), ParseErrorCode::kLimitExceeded);
}

TEST(IoHardening, DeclaredEdgeCountCapIsEnforcedBeforeReading) {
  EdgeListLimits limits;
  limits.max_edges = 2;
  const ParseError e = capture("4 3\n0 1\n1 2\n2 3\n", limits);
  EXPECT_EQ(e.code(), ParseErrorCode::kLimitExceeded);
  EXPECT_EQ(e.line(), 1u);  // rejected at the header, not at edge 3
}

TEST(IoHardening, UndeclaredExtraEdgesHitTheCapToo) {
  // A lying header (declares few, streams many) is stopped by the data-line
  // cap even with the count check disabled.
  EdgeListLimits limits;
  limits.max_edges = 2;
  limits.check_edge_count = false;
  const ParseError e = capture("5 2\n0 1\n1 2\n2 3\n3 4\n", limits);
  EXPECT_EQ(e.code(), ParseErrorCode::kLimitExceeded);
  EXPECT_EQ(e.line(), 4u);
}

TEST(IoHardening, EdgeCountMismatchIsTyped) {
  EXPECT_EQ(capture("3 2\n0 1\n").code(), ParseErrorCode::kCountMismatch);
  EXPECT_EQ(capture("3 1\n0 1\n1 2\n").code(),
            ParseErrorCode::kCountMismatch);
  EdgeListLimits lenient;
  lenient.check_edge_count = false;
  EXPECT_EQ(read("3 2\n0 1\n", lenient).num_edges(), 1u);
}

TEST(IoHardening, EndpointOutOfDeclaredRangeIsTyped) {
  const ParseError e = capture("3 1\n0 7\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kOutOfRange);
  EXPECT_EQ(e.token(), "7");
}

TEST(IoHardening, SelfLoopRejectedByDefaultSkippedUnderDedupe) {
  const ParseError e = capture("3 1\n1 1\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kSelfLoop);
  EXPECT_EQ(e.line(), 2u);

  EdgeListLimits dedupe;
  dedupe.duplicates = DuplicatePolicy::kDedupe;
  const Graph g = read("3 2\n1 1\n0 2\n", dedupe);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(IoHardening, DuplicateEdgeRejectedByDefaultSkippedUnderDedupe) {
  // Orientation-insensitive: {0,1} and {1,0} are the same edge.
  const ParseError e = capture("3 2\n0 1\n1 0\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kDuplicateEdge);
  EXPECT_EQ(e.line(), 3u);

  EdgeListLimits dedupe;
  dedupe.duplicates = DuplicatePolicy::kDedupe;
  const Graph g = read("3 3\n0 1\n1 0\n1 2\n", dedupe);
  EXPECT_EQ(g.num_edges(), 2u);
}

// Duplicates are found by sorting after the scan, but are reported as if
// each edge were checked on arrival: the first edge (in input order) that
// repeats an earlier one, ahead of any error on a later line.
TEST(IoHardening, DuplicateIsReportedBeforeALaterOutOfRangeEndpoint) {
  const ParseError e = capture("3 3\n0 1\n1 0\n0 5\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kDuplicateEdge);
  EXPECT_EQ(e.line(), 3u);
  EXPECT_EQ(e.column(), 1u);
  EXPECT_STREQ(e.what(),
               "parse error [duplicate_edge] at line 3, column 1: "
               "duplicate edge {0, 1}");
}

TEST(IoHardening, DuplicateIsReportedBeforeAHeaderCountMismatch) {
  const ParseError e = capture("4 5\n1 2\n2 3\n3 2\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kDuplicateEdge);
  EXPECT_EQ(e.line(), 4u);
  EXPECT_STREQ(e.what(),
               "parse error [duplicate_edge] at line 4, column 1: "
               "duplicate edge {2, 3}");
}

TEST(IoHardening, DuplicateIsReportedBeforeTheEdgeCap) {
  EdgeListLimits limits;
  limits.max_edges = 2;
  limits.check_edge_count = false;
  const ParseError e = capture("4 2\n2 3\n3 2\n0 1\n", limits);
  EXPECT_EQ(e.code(), ParseErrorCode::kDuplicateEdge);
  EXPECT_EQ(e.line(), 3u);
  EXPECT_STREQ(e.what(),
               "parse error [duplicate_edge] at line 3, column 1: "
               "duplicate edge {2, 3}");
}

TEST(IoHardening, IndentedDuplicateNamesItsColumn) {
  const ParseError e = capture("3 2\n0 1\n  1 0\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kDuplicateEdge);
  EXPECT_EQ(e.line(), 3u);
  EXPECT_EQ(e.column(), 3u);
  EXPECT_STREQ(e.what(),
               "parse error [duplicate_edge] at line 3, column 3: "
               "duplicate edge {0, 1}");
}

TEST(IoHardening, FirstRepeatInInputOrderIsTheWitness) {
  // {0,1} sorts first, but {3,4} repeats first.
  const ParseError e = capture("5 4\n3 4\n0 1\n4 3\n1 0\n");
  EXPECT_EQ(e.line(), 4u);
  EXPECT_STREQ(e.what(),
               "parse error [duplicate_edge] at line 4, column 1: "
               "duplicate edge {3, 4}");
  // Comments, blank lines and indentation before the witness keep its
  // line and column exact.
  const ParseError f =
      capture("# c\n6 5\n0 1\n\n\t1 2 # x\n# y\n2 3\n3 4\n4 3\n");
  EXPECT_EQ(f.line(), 9u);
  EXPECT_EQ(f.column(), 1u);
  EXPECT_EQ(f.message(), "duplicate edge {3, 4}");
}

TEST(IoHardening, OversizedLineIsCappedWithoutReadingIt) {
  EdgeListLimits limits;
  limits.max_line_bytes = 16;
  const std::string long_line(64, '1');
  const ParseError e = capture("3 1\n" + long_line + " 2\n", limits);
  EXPECT_EQ(e.code(), ParseErrorCode::kLimitExceeded);
  EXPECT_EQ(e.line(), 2u);
}

TEST(IoHardening, DiagnosticTokenIsClippedForPathologicalInput) {
  const std::string huge(500, 'x');
  const ParseError e = capture("3 1\n" + huge + " 2\n");
  EXPECT_EQ(e.code(), ParseErrorCode::kBadToken);
  EXPECT_LE(e.token().size(), 67u);  // 64 chars + "..."
}

TEST(IoHardening, FileOpenFailureCarriesErrnoDetail) {
  try {
    graph::read_edge_list_file("/nonexistent/dir/graph.txt");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find("No such file or directory"),
              std::string::npos)
        << e.what();
  }
  try {
    graph::write_edge_list_file(Graph::from_edges(2, {{0, 1}}),
                                "/nonexistent/dir/graph.txt");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find("for writing"), std::string::npos);
  }
}

TEST(IoHardening, ParseErrorFormatsLocationCodeAndToken) {
  const ParseError e = capture("3 1\nzero 1\n");
  const std::string what = e.what();
  EXPECT_NE(what.find("[bad_token]"), std::string::npos) << what;
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("'zero'"), std::string::npos) << what;
}

TEST(IoHardening, ParseErrorIsACheckFailure) {
  // Pre-existing catch sites on CheckFailure keep working.
  EXPECT_THROW(read("0 0\n"), CheckFailure);
}

TEST(IoHardening, StrictArgParserAccessors) {
  const char* argv[] = {"prog", "--threads=12", "--eps=0.25", "--bad=12abc",
                        "--huge=99999999999999999999", "--neg=-5"};
  const ArgParser args(6, argv);
  EXPECT_EQ(args.require_int("threads", 1), 12);
  EXPECT_DOUBLE_EQ(args.require_double("eps", 0.5), 0.25);
  EXPECT_EQ(args.require_int("absent", 7), 7);
  EXPECT_EQ(args.require_int("neg", 0), -5);
  EXPECT_THROW(args.require_int("bad", 0), ParseError);
  EXPECT_THROW(args.require_double("bad", 0.0), ParseError);
  EXPECT_THROW(args.require_int("huge", 0), ParseError);
  // The lenient accessors keep their prefix-parse behavior for bench scripts.
  EXPECT_EQ(args.get_int("bad", 0), 12);
}

TEST(IoHardening, ParseU64EdgeCases) {
  std::uint64_t value = 0;
  bool overflow = false;
  EXPECT_TRUE(parse::parse_u64("18446744073709551615", &value, &overflow));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_FALSE(overflow);
  EXPECT_FALSE(parse::parse_u64("18446744073709551616", &value, &overflow));
  EXPECT_TRUE(overflow);
  EXPECT_FALSE(parse::parse_u64("", &value, &overflow));
  EXPECT_FALSE(overflow);
  EXPECT_FALSE(parse::parse_u64("1e3", &value, &overflow));
  EXPECT_FALSE(parse::parse_u64("-1", &value, &overflow));
}

}  // namespace
}  // namespace dmpc
