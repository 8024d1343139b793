// Tests for the offline trace analyzer (obs/trace_analysis.hpp): span-tree
// reconstruction from both serialized formats, critical-path extraction
// under rounds and wall weighting, folded flamegraph stacks, the profile
// skew gate, and a byte-exact round trip against the checked-in E17 trace
// fixture (tests/data/e17_trace.jsonl), plus the matching trace and both
// problems' event-stream model projections pinned the same way.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"

namespace dmpc {
namespace {

#ifndef DMPC_TEST_DATA_DIR
#define DMPC_TEST_DATA_DIR "tests/data"
#endif

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(DMPC_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The fixtures' graph: E17's gnm n=512, m=16n, seed 23.
graph::Graph fixture_graph() { return graph::gnm(512, 8192, 23); }

/// A fixture solve reproduced live with a golden JSONL trace (profile on,
/// no wall timestamps). `solve` runs one problem on the given solver.
template <typename Solve>
std::string live_trace(Solve&& solve) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(&out, /*include_wall_time=*/false);
  obs::TraceSession session(&sink);
  SolveOptions options;
  options.profile = true;
  options.trace = &session;
  solve(Solver(options));
  session.finish();
  return out.str();
}

/// A fixture solve reproduced live under an event bus: the model projection
/// of its progress-event stream.
template <typename Solve>
std::string live_model_projection(Solve&& solve) {
  obs::CollectorEventSink collector;
  obs::EventBus bus;
  EXPECT_TRUE(bus.subscribe(&collector));
  SolveOptions options;
  options.events = &bus;
  solve(Solver(options));
  return obs::model_projection(collector.events());
}

const auto kMis = [](const Solver& s) { s.mis(fixture_graph()); };
const auto kMatching = [](const Solver& s) {
  s.maximal_matching(fixture_graph());
};

TEST(TraceAnalyze, FixtureIsByteIdenticalToLiveTrace) {
  // The checked-in fixture doubles as a cross-session golden: regenerate it
  // (see tests/data/README.md) whenever the pipeline's trace shape changes.
  EXPECT_EQ(live_trace(kMis), read_fixture("e17_trace.jsonl"));
}

TEST(TraceAnalyze, MatchingFixtureIsByteIdenticalToLiveTrace) {
  EXPECT_EQ(live_trace(kMatching), read_fixture("matching_trace.jsonl"));
}

TEST(TraceAnalyze, ModelProjectionFixturesAreByteIdenticalToLiveRuns) {
  EXPECT_EQ(live_model_projection(kMis), read_fixture("mis_events.jsonl"));
  EXPECT_EQ(live_model_projection(kMatching),
            read_fixture("matching_events.jsonl"));
}

TEST(TraceAnalyze, FixtureCriticalPathIsRoundWeighted) {
  const auto analysis = obs::analyze_trace_text(read_fixture("e17_trace.jsonl"));
  EXPECT_GT(analysis.spans.size(), 10u);
  ASSERT_EQ(analysis.roots.size(), 1u);
  EXPECT_GT(analysis.total_rounds, 0u);
  EXPECT_FALSE(analysis.has_wall);  // golden trace: no timestamps

  const auto path = obs::critical_path(analysis);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(analysis.spans[path.front().span].name, "mis/pipeline");
  EXPECT_EQ(path.front().inclusive, analysis.total_rounds);
  // Inclusive weight is non-increasing down the path.
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_LE(path[i].inclusive, path[i - 1].inclusive);
    EXPECT_EQ(analysis.spans[path[i].span].parent, path[i - 1].span);
  }
}

TEST(TraceAnalyze, WallWeightedPathSurfacesDerandSeedSearch) {
  // With wall timestamps on, the host-side critical path must end in the
  // derand seed search (mis_sparsify/seed wraps derand::try_find_seed), which
  // charges few model rounds but dominates wall time.
  const auto g = graph::gnm(512, 8192, 23);
  std::ostringstream out;
  obs::JsonlTraceSink sink(&out, /*include_wall_time=*/true);
  obs::TraceSession session(&sink);
  SolveOptions options;
  options.trace = &session;
  Solver(options).mis(g);
  session.finish();

  const auto analysis = obs::analyze_trace_text(out.str());
  EXPECT_TRUE(analysis.has_wall);
  const auto wall_path =
      obs::critical_path(analysis, obs::PathWeight::kWall);
  ASSERT_FALSE(wall_path.empty());
  bool seen_seed = false;
  for (const auto& entry : wall_path) {
    seen_seed = seen_seed ||
                analysis.spans[entry.span].name == "mis_sparsify/seed";
  }
  EXPECT_TRUE(seen_seed) << "CE sweep not on the wall critical path";
}

TEST(TraceAnalyze, HotSpansAggregateByNameDeterministically) {
  const auto analysis = obs::analyze_trace_text(read_fixture("e17_trace.jsonl"));
  const auto hot = obs::hot_spans(analysis);
  ASSERT_FALSE(hot.empty());
  std::uint64_t self_total = 0;
  bool seen_seed = false;
  for (const auto& span : hot) {
    self_total += span.self_rounds;
    seen_seed = seen_seed || span.name == "mis_sparsify/seed";
  }
  EXPECT_TRUE(seen_seed);
  // Self weights partition the total: no double counting across the tree.
  EXPECT_EQ(self_total, analysis.total_rounds);
  for (std::size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].self_rounds, hot[i].self_rounds);
  }
}

TEST(TraceAnalyze, FoldedStacksPartitionTheTotal) {
  const auto analysis = obs::analyze_trace_text(read_fixture("e17_trace.jsonl"));
  const std::string folded = obs::folded_stacks(analysis);
  ASSERT_FALSE(folded.empty());
  std::uint64_t total = 0;
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    const auto space = line.find_last_of(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' '), space) << "stack frames must use ';': " << line;
    total += std::stoull(line.substr(space + 1));
    EXPECT_EQ(line.rfind("mis/pipeline", 0), 0u)
        << "every stack starts at the root: " << line;
  }
  EXPECT_EQ(total, analysis.total_rounds);
  EXPECT_NE(folded.find(";mis_sparsify/seed "), std::string::npos);
}

TEST(TraceAnalyze, ChromeTraceReconstructsTheSameTree) {
  std::ostringstream jsonl_out;
  std::ostringstream chrome_out;
  {
    obs::JsonlTraceSink jsonl(&jsonl_out, /*include_wall_time=*/false);
    obs::TraceSession session(&jsonl);
    obs::Span outer(&session, "phase/outer");
    { obs::Span inner(&session, "phase/inner"); }
  }
  {
    obs::ChromeTraceSink chrome(&chrome_out);
    obs::TraceSession session(&chrome);
    {
      obs::Span outer(&session, "phase/outer");
      { obs::Span inner(&session, "phase/inner"); }
    }
    session.finish();
  }
  const auto a = obs::analyze_trace_text(jsonl_out.str());
  const auto b = obs::analyze_trace_text(chrome_out.str());
  ASSERT_EQ(a.spans.size(), 2u);
  ASSERT_EQ(b.spans.size(), 2u);
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].name, b.spans[i].name);
    EXPECT_EQ(a.spans[i].parent, b.spans[i].parent);
    EXPECT_EQ(a.spans[i].depth, b.spans[i].depth);
  }
}

TEST(TraceAnalyze, MalformedAndTruncatedInput) {
  EXPECT_THROW(obs::analyze_trace_text("   \n  \n"), ParseError);
  EXPECT_THROW(obs::analyze_trace_text("not json\n"), ParseError);
  // A truncated stream (begin without end) is tolerated: the open span is
  // closed with zero weight rather than rejected, so post-crash traces
  // still analyze.
  const auto analysis = obs::analyze_trace_text(
      R"({"seq":0,"type":"begin","name":"a","span":1,"parent":0,"depth":0})"
      "\n");
  ASSERT_EQ(analysis.spans.size(), 1u);
  EXPECT_EQ(analysis.spans[0].name, "a");
}

// ---- Profile skew gate ----

Json profiled_block() {
  obs::RoundProfiler profiler;
  profiler.observe_load(10, 0);
  profiler.observe_load(30, 1);
  profiler.commit("mpc/route", 2, 2, 40);
  auto snap = profiler.snapshot();
  snap.enabled = true;
  return to_json(snap);
}

TEST(ProfileGate, PassesUnderGenerousThresholds) {
  const Json profile = profiled_block();
  const Json thresholds = Json::parse(
      R"({"max_gini_ppm": 900000, "max_load_max": 1000})");
  EXPECT_TRUE(obs::check_profile_gate(profile, thresholds, "t").empty());
}

TEST(ProfileGate, NamesOffendingLabelAndRoundRange) {
  const Json profile = profiled_block();
  // gini of {10, 30} = 20e6 / (2 * 40) = 250000 ppm; cap below that.
  const Json thresholds = Json::parse(R"({"max_gini_ppm": 200000})");
  const auto violations = obs::check_profile_gate(profile, thresholds, "ctx");
  // One per-label violation plus one ring-record violation.
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].series, "ctx.mpc/route");
  EXPECT_NE(violations[0].detail.find("250000"), std::string::npos);
  EXPECT_NE(violations[1].series.find("rounds [0, 2)"), std::string::npos);
}

TEST(ProfileGate, LabelOverridesBeatTheGlobalCap) {
  const Json profile = profiled_block();
  const Json thresholds = Json::parse(
      R"({"max_gini_ppm": 200000,
          "labels": {"mpc/route": {"max_gini_ppm": 800000}}})");
  EXPECT_TRUE(obs::check_profile_gate(profile, thresholds, "t").empty());
}

TEST(ProfileGate, AbsentKeysImposeNoLimit) {
  const Json profile = profiled_block();
  EXPECT_TRUE(
      obs::check_profile_gate(profile, Json::object(), "t").empty());
}

}  // namespace
}  // namespace dmpc
