// Cross-validation suites:
//  - brute force: every graph on 5 nodes (all 1024 edge subsets) plus a
//    random slice of 6-node graphs, through both public solvers;
//  - the §2.1 reduction: direct §3 matching vs MIS-on-line-graph via §4 —
//    independent pipelines, both must be valid on the same inputs;
//  - tabulation hashing sanity (the alternative family).
#include <gtest/gtest.h>

#include <set>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "hash/tabulation.hpp"
#include "line_graph_matching.hpp"
#include "matching/det_matching.hpp"
#include "support/rng.hpp"

namespace dmpc {
namespace {

using graph::Edge;
using graph::Graph;
using graph::NodeId;

std::vector<Edge> all_pairs(NodeId n) {
  std::vector<Edge> pairs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) pairs.push_back({u, v});
  }
  return pairs;
}

Graph graph_from_mask(NodeId n, const std::vector<Edge>& pairs,
                      std::uint32_t mask) {
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (mask & (1u << i)) edges.push_back(pairs[i]);
  }
  return Graph::from_edges(n, std::move(edges));
}

TEST(BruteForce, EveryFiveNodeGraph) {
  const auto pairs = all_pairs(5);  // 10 pairs -> 1024 graphs
  for (std::uint32_t mask = 0; mask < (1u << pairs.size()); ++mask) {
    const Graph g = graph_from_mask(5, pairs, mask);
    const auto mis = Solver().mis(g);
    ASSERT_TRUE(graph::is_maximal_independent_set(g, mis.in_set))
        << "mask " << mask;
    const auto mm = Solver().maximal_matching(g);
    ASSERT_TRUE(graph::is_maximal_matching(g, mm.matching))
        << "mask " << mask;
  }
}

TEST(BruteForce, SampledSixNodeGraphs) {
  const auto pairs = all_pairs(6);  // 15 pairs -> 32768 graphs; sample 512
  Rng rng(99);
  for (int trial = 0; trial < 512; ++trial) {
    const auto mask = static_cast<std::uint32_t>(
        rng.next_below(1u << pairs.size()));
    const Graph g = graph_from_mask(6, pairs, mask);
    const auto mis = Solver().mis(g);
    ASSERT_TRUE(graph::is_maximal_independent_set(g, mis.in_set))
        << "mask " << mask;
    const auto mm = Solver().maximal_matching(g);
    ASSERT_TRUE(graph::is_maximal_matching(g, mm.matching))
        << "mask " << mask;
  }
}

TEST(LineGraphReduction, MatchesDirectPipelineValidity) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::gnm(120, 480, seed);
    const auto direct = matching::det_maximal_matching(g, {});
    const auto reduced = testref::matching_via_line_graph(g);
    EXPECT_TRUE(graph::is_maximal_matching(g, direct.matching));
    EXPECT_TRUE(graph::is_maximal_matching(g, reduced));
    // Sizes agree within the 2x factor both inherit from maximality.
    EXPECT_LE(direct.matching.size(), 2 * reduced.size());
    EXPECT_LE(reduced.size(), 2 * direct.matching.size());
  }
}

TEST(LineGraphReduction, StructuredFamilies) {
  for (const Graph& g :
       {graph::cycle(30), graph::star(20), graph::grid(6, 6)}) {
    EXPECT_TRUE(graph::is_maximal_matching(
        g, testref::matching_via_line_graph(g)));
  }
}

TEST(Tabulation, DeterministicAndSeedSensitive) {
  const hash::TabulationFamily family;
  const auto f1 = family.at(7);
  const auto f2 = family.at(7);
  const auto g1 = family.at(8);
  int diff = 0;
  for (std::uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(f1(x), f2(x));
    if (f1(x) != g1(x)) ++diff;
  }
  EXPECT_GT(diff, 90);  // different seeds give essentially different maps
}

TEST(Tabulation, UniformityOverLowBits) {
  // 3-wise independence implies near-uniform low bits: bucket 4096 inputs
  // into 16 buckets, expect no bucket far from 256.
  const auto fn = hash::TabulationFamily().at(12345);
  std::vector<int> buckets(16, 0);
  for (std::uint64_t x = 0; x < 4096; ++x) ++buckets[fn(x) & 15];
  for (const int count : buckets) {
    EXPECT_GT(count, 170);
    EXPECT_LT(count, 350);
  }
}

TEST(Tabulation, XorStructureOverBlocks) {
  // h(x) depends on each byte independently: changing one byte changes the
  // hash by a value that depends only on that byte pair, not on the rest.
  const auto fn = hash::TabulationFamily().at(5);
  const std::uint64_t delta1 = fn(0x00FF) ^ fn(0x0000);
  const std::uint64_t delta2 = fn(0xAB00 | 0xFF) ^ fn(0xAB00);
  EXPECT_EQ(delta1, delta2);
}

}  // namespace
}  // namespace dmpc
