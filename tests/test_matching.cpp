// Tests for the deterministic maximal matching pipeline (§3, Theorem 7).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "matching/det_matching.hpp"
#include "support/rng.hpp"

namespace dmpc::matching {
namespace {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;

TEST(DetMatching, ValidOnRandomGraphs) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::gnm(256, 2048, seed);
    const auto result = det_maximal_matching(g, DetMatchingConfig{});
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
    EXPECT_GE(result.iterations, 1u);
  }
}

TEST(DetMatching, DeterministicAcrossRuns) {
  const Graph g = graph::gnm(200, 1600, 3);
  const auto a = det_maximal_matching(g, DetMatchingConfig{});
  const auto b = det_maximal_matching(g, DetMatchingConfig{});
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.metrics.rounds(), b.metrics.rounds());
}

TEST(DetMatching, StructuredFamilies) {
  const auto configs = DetMatchingConfig{};
  for (const Graph& g :
       {graph::cycle(64), graph::path(64), graph::star(63),
        graph::complete_bipartite(16, 16), graph::grid(8, 8)}) {
    const auto result = det_maximal_matching(g, configs);
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  }
}

TEST(DetMatching, PowerLawAndLopsided) {
  const Graph pl = graph::power_law(400, 2400, 2.5, 4);
  EXPECT_TRUE(graph::is_maximal_matching(
      pl, det_maximal_matching(pl, DetMatchingConfig{}).matching));
  const Graph lop = graph::lopsided(4, 40, 100, 200, 5);
  EXPECT_TRUE(graph::is_maximal_matching(
      lop, det_maximal_matching(lop, DetMatchingConfig{}).matching));
}

TEST(DetMatching, IterationReportsShowProgress) {
  const Graph g = graph::gnm(256, 2048, 6);
  const auto result = det_maximal_matching(g, DetMatchingConfig{});
  ASSERT_EQ(result.reports.size(), result.iterations);
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    const auto& r = result.reports[i];
    EXPECT_EQ(r.iteration, i + 1);
    EXPECT_LT(r.edges_after, r.edges_before);
    EXPECT_GT(r.progress_fraction, 0.0);
    EXPECT_GT(r.committed, 0u);
    EXPECT_GE(r.cls, 1u);
  }
  EXPECT_EQ(result.reports.back().edges_after, 0u);
}

TEST(DetMatching, IterationsLogarithmic) {
  // O(log n) claim: generous constant for the finite-n check.
  const Graph g = graph::gnm(1024, 8192, 7);
  const auto result = det_maximal_matching(g, DetMatchingConfig{});
  const double log_m =
      std::log2(static_cast<double>(g.num_edges()) + 1.0);
  EXPECT_LE(result.iterations, static_cast<std::uint64_t>(12 * log_m) + 12);
}

TEST(DetMatching, SpaceWithinBudget) {
  const Graph g = graph::gnm(512, 4096, 8);
  DetMatchingConfig config;
  const auto cc = cluster_config_for(config, g.num_nodes(), g.num_edges());
  const auto result = det_maximal_matching(g, config);
  // Simulator enforces this; re-assert from the metrics.
  EXPECT_LE(result.metrics.peak_machine_load(), cc.machine_space);
}

TEST(DetMatching, RoundsAccumulateByLabel) {
  const Graph g = graph::gnm(256, 2048, 9);
  const auto result = det_maximal_matching(g, DetMatchingConfig{});
  const auto& labels = result.metrics.by_label();
  EXPECT_GT(labels.at("good_nodes/matching").rounds, 0u);
  EXPECT_GT(labels.at("matching/selection").rounds, 0u);
  EXPECT_GT(labels.at("matching/gather2hop").rounds, 0u);
  EXPECT_GT(result.metrics.rounds(), 0u);
  EXPECT_GT(result.metrics.total_communication(), 0u);
}

TEST(DetMatching, TinyGraphs) {
  const Graph single = Graph::from_edges(2, {{0, 1}});
  const auto result = det_maximal_matching(single, DetMatchingConfig{});
  ASSERT_EQ(result.matching.size(), 1u);
  const Graph empty = Graph::from_edges(3, {});
  const auto none = det_maximal_matching(empty, DetMatchingConfig{});
  EXPECT_TRUE(none.matching.empty());
  EXPECT_EQ(none.iterations, 0u);
}

TEST(DetMatching, EpsVariants) {
  const Graph g = graph::gnm(256, 2048, 10);
  for (double eps : {0.3, 0.5, 0.7}) {
    DetMatchingConfig config;
    config.eps = eps;
    const auto result = det_maximal_matching(g, config);
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  }
}

/// The Lemma-13 definition, scanned per incidence: E*-position i is in E_h
/// when no other E* edge sharing an endpoint has a smaller (priority, id).
/// Positions ascend with edge id, so comparing positions compares ids.
std::vector<std::uint32_t> brute_force_local_minima(
    const Graph& g, const std::vector<EdgeId>& estar,
    const std::vector<std::uint64_t>& priority) {
  std::vector<std::vector<std::uint32_t>> incident(g.num_nodes());
  for (std::uint32_t i = 0; i < estar.size(); ++i) {
    incident[g.edge(estar[i]).u].push_back(i);
    incident[g.edge(estar[i]).v].push_back(i);
  }
  std::vector<std::uint32_t> minima;
  for (std::uint32_t i = 0; i < estar.size(); ++i) {
    bool local_min = true;
    for (const graph::NodeId w : {g.edge(estar[i]).u, g.edge(estar[i]).v}) {
      for (const std::uint32_t f : incident[w]) {
        if (f != i && (priority[f] < priority[i] ||
                       (priority[f] == priority[i] && f < i))) {
          local_min = false;
        }
      }
    }
    if (local_min) minima.push_back(i);
  }
  return minima;
}

TEST(SelectionLocalMinima, ArgminRoutineMatchesLemma13Definition) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto n = static_cast<graph::NodeId>(8 + rng.next_below(40));
    const Graph g = graph::gnm(n, 1 + rng.next_below(3 * n), seed);
    // A random E* subset, in ascending edge-id order as the pipeline builds it.
    std::vector<EdgeId> estar;
    std::vector<Edge> ends;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (rng.next_below(4) == 0) continue;
      estar.push_back(e);
      ends.push_back(g.edge(e));
    }
    // Priorities in {0, 1, 2} force ties; the all-equal array (the a = 0
    // seed) leaves every comparison to the id tie-break.
    std::vector<std::uint64_t> tied(estar.size());
    for (std::uint64_t& z : tied) z = rng.next_below(3);
    std::vector<std::uint64_t> equal(estar.size(), 7);
    for (const auto* priority : {&tied, &equal}) {
      const auto minima = detail::local_minima(n, ends, priority->data());
      EXPECT_EQ(minima, brute_force_local_minima(g, estar, *priority));
      // E_h is a matching.
      std::vector<EdgeId> matched;
      for (const std::uint32_t i : minima) matched.push_back(estar[i]);
      EXPECT_TRUE(graph::is_matching(g, matched));
    }
  }
}

}  // namespace
}  // namespace dmpc::matching
