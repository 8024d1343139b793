// End-to-end tests for the conditional-expectation selection mode: the
// textbook §2.4 machinery running inside the real §3/§4 pipelines.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "matching/det_matching.hpp"
#include "mis/det_mis.hpp"
#include "support/check.hpp"

namespace dmpc {
namespace {

using graph::Graph;

TEST(CePipeline, MatchingValidOnSmallGraphs) {
  matching::DetMatchingConfig config;
  config.selection_mode = derand::SelectionMode::kConditionalExpectation;
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::gnm(96, 480, seed);
    const auto result = matching::det_maximal_matching(g, config);
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  }
}

TEST(CePipeline, MisValidOnSmallGraphs) {
  mis::DetMisConfig config;
  config.selection_mode = derand::SelectionMode::kConditionalExpectation;
  for (std::uint64_t seed : {3, 4}) {
    const Graph g = graph::gnm(96, 480, seed);
    const auto result = mis::det_mis(g, config);
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.in_set));
  }
}

TEST(CePipeline, DeterministicAndDistinctFromThresholdMode) {
  const Graph g = graph::gnm(80, 400, 5);
  matching::DetMatchingConfig ce;
  ce.selection_mode = derand::SelectionMode::kConditionalExpectation;
  const auto a = matching::det_maximal_matching(g, ce);
  const auto b = matching::det_maximal_matching(g, ce);
  EXPECT_EQ(a.matching, b.matching);
  // Both modes must be valid; they may legitimately differ in output.
  matching::DetMatchingConfig ts;
  const auto c = matching::det_maximal_matching(g, ts);
  EXPECT_TRUE(graph::is_maximal_matching(g, c.matching));
}

TEST(CePipeline, SelectionTrialsReflectFullChunkSweeps) {
  // In CE mode the per-iteration "trials" figure is the whole seed space
  // (every candidate chunk value is examined analytically).
  const Graph g = graph::gnm(64, 256, 6);
  matching::DetMatchingConfig config;
  config.selection_mode = derand::SelectionMode::kConditionalExpectation;
  const auto result = matching::det_maximal_matching(g, config);
  for (const auto& r : result.reports) {
    EXPECT_GT(r.selection_trials, 256u);  // p^2 with p >= m >= 256
  }
}

TEST(CePipeline, StructuredSmallFamilies) {
  matching::DetMatchingConfig mm_config;
  mm_config.selection_mode = derand::SelectionMode::kConditionalExpectation;
  mis::DetMisConfig mis_config;
  mis_config.selection_mode = derand::SelectionMode::kConditionalExpectation;
  for (const Graph& g : {graph::cycle(40), graph::star(25),
                         graph::complete_bipartite(10, 12),
                         graph::grid(6, 6)}) {
    EXPECT_TRUE(graph::is_maximal_matching(
        g, matching::det_maximal_matching(g, mm_config).matching));
    EXPECT_TRUE(graph::is_maximal_independent_set(
        g, mis::det_mis(g, mis_config).in_set));
  }
}

}  // namespace
}  // namespace dmpc
