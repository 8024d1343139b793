// Unit tests for src/support: math helpers, RNG, stats, options, checks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "api/cli_options.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"
#include "support/math.hpp"
#include "support/options.hpp"
#include "support/parse_error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace dmpc {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    DMPC_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(DMPC_CHECK(2 + 2 == 4));
}

TEST(Logging, LevelGatingAndRestore) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
  DMPC_ERROR("suppressed at kOff: " << 42);  // must not crash
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(before);
}

TEST(Logging, ParseLogLevelRecognizedValues) {
  const struct {
    const char* text;
    LogLevel expected;
  } cases[] = {{"debug", LogLevel::kDebug}, {"info", LogLevel::kInfo},
               {"warn", LogLevel::kWarn},   {"error", LogLevel::kError},
               {"off", LogLevel::kOff},     {"WARN", LogLevel::kWarn},
               {"Error", LogLevel::kError}, {"  info  ", LogLevel::kInfo},
               {"\tdebug", LogLevel::kDebug}};
  for (const auto& c : cases) {
    LogLevel out = LogLevel::kOff;
    EXPECT_TRUE(parse_log_level(c.text, out)) << "'" << c.text << "'";
    EXPECT_EQ(out, c.expected) << "'" << c.text << "'";
  }
}

TEST(Logging, ParseLogLevelRejectsUnknownAndLeavesOutputUntouched) {
  for (const char* bad : {"", "  ", "verbose", "warning", "2", "debugx",
                          "de bug", "warn,info"}) {
    LogLevel out = LogLevel::kError;  // sentinel
    EXPECT_FALSE(parse_log_level(bad, out)) << "'" << bad << "'";
    EXPECT_EQ(out, LogLevel::kError) << "'" << bad << "'";
  }
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(floor_log2(UINT64_MAX), 63);
  EXPECT_THROW(floor_log2(0), CheckFailure);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1ULL << 40), 40);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(5, 5), 1);
  EXPECT_EQ(ceil_div(6, 5), 2);
  EXPECT_THROW(ceil_div(1, 0), CheckFailure);
}

TEST(Math, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024);
  EXPECT_EQ(ipow(3, 0), 1);
  EXPECT_EQ(ipow(10, 6), 1000000);
  EXPECT_THROW(ipow(2, 64), CheckFailure);
}

TEST(Math, IpowReal) {
  EXPECT_EQ(ipow_real(1024, 0.5), 32);
  EXPECT_EQ(ipow_real(1000000, 1.0 / 3.0), 99);  // floor of ~99.999..
}

TEST(Math, Isqrt) {
  EXPECT_EQ(isqrt(0), 0);
  EXPECT_EQ(isqrt(1), 1);
  EXPECT_EQ(isqrt(15), 3);
  EXPECT_EQ(isqrt(16), 4);
  EXPECT_EQ(isqrt(1ULL << 40), 1ULL << 20);
  EXPECT_EQ(isqrt((1ULL << 40) - 1), (1ULL << 20) - 1);
}

TEST(Math, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(4), 4);
  EXPECT_EQ(next_pow2(1000), 1024);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng a2(7);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_THROW(rng.next_below(0), CheckFailure);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(4);
  auto perm = rng.permutation(100);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, EmptyThrows) {
  RunningStats s;
  EXPECT_THROW(s.mean(), CheckFailure);
  EXPECT_THROW(s.min(), CheckFailure);
}

TEST(Stats, Percentile) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, HistogramBuckets) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1);   // clamps to bucket 0
  h.add(0.5);
  h.add(9.9);
  h.add(100);  // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[4], 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 4.0);
}

TEST(Stats, LinearFitExact) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Options, ParsesKeysAndPositional) {
  const char* argv[] = {"prog", "--n=100", "--verbose", "input.txt",
                        "--eps=0.25"};
  ArgParser args(5, argv);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.5), 0.25);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

std::string unread_error(const ArgParser& args) {
  try {
    args.reject_unread();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kBadToken);
    return e.what();
  }
  return "";
}

TEST(Options, RejectUnreadNamesOptionsNoAccessorRead) {
  // A mistyped solve flag: parse_solve_options reads every flag the solve
  // commands support, so only the typos stay unread.
  const char* argv[] = {"mis", "--in=g.txt", "--certfy=full", "--thread=4",
                        "--profile"};
  const ArgParser args(5, argv);
  parse_solve_options(args);
  args.get("in", "graph.txt");
  EXPECT_NE(unread_error(args).find("unknown option --certfy"),
            std::string::npos);
  args.get("certfy", "");
  EXPECT_NE(unread_error(args).find("unknown option --thread"),
            std::string::npos);
  // Any accessor counts as a read, whatever the key's value.
  args.has("thread");
  EXPECT_EQ(unread_error(args), "");
}

}  // namespace
}  // namespace dmpc
