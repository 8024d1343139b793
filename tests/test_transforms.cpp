// Unit tests for line graph, square graph, and subgraph transforms (the
// square graph is the test-local reference in square_reference.hpp).
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "graph/validate.hpp"
#include "square_reference.hpp"

namespace dmpc::graph {
namespace {

TEST(LineGraph, PathAndTriangle) {
  // P4: edges (0-1),(1-2),(2-3) -> line graph is P3.
  const Graph p = path(4);
  const Graph lp = line_graph(p);
  EXPECT_EQ(lp.num_nodes(), 3u);
  EXPECT_EQ(lp.num_edges(), 2u);
  // Triangle -> line graph is a triangle.
  const Graph t = cycle(3);
  const Graph lt = line_graph(t);
  EXPECT_EQ(lt.num_nodes(), 3u);
  EXPECT_EQ(lt.num_edges(), 3u);
}

TEST(LineGraph, StarBecomesClique) {
  const Graph s = star(5);
  const Graph ls = line_graph(s);
  EXPECT_EQ(ls.num_nodes(), 5u);
  EXPECT_EQ(ls.num_edges(), 10u);  // K5
}

TEST(LineGraph, SizeFormula) {
  const Graph g = gnm(60, 200, 3);
  const Graph lg = line_graph(g);
  std::uint64_t sum_d2 = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    sum_d2 += static_cast<std::uint64_t>(g.degree(v)) * g.degree(v);
  }
  EXPECT_EQ(lg.num_nodes(), g.num_edges());
  EXPECT_EQ(lg.num_edges(), sum_d2 / 2 - g.num_edges());
}

TEST(Square, PathGainsDistance2Edges) {
  const Graph p = path(5);
  const Graph p2 = testref::square(p);
  EXPECT_EQ(p2.num_edges(), 4u + 3u);  // dist-1 + dist-2 pairs
  EXPECT_TRUE(p2.has_edge(0, 2));
  EXPECT_FALSE(p2.has_edge(0, 3));
}

TEST(Square, MaxDegreeBounded) {
  const Graph g = random_regular(200, 4, 5);
  const Graph g2 = testref::square(g);
  EXPECT_LE(g2.max_degree(), 4u + 4u * 3u + 4u);  // <= d + d(d-1) slack
  // A proper coloring of G^2 is a distance-2 coloring of G: check on a
  // trivially correct coloring by identity.
  std::vector<std::uint32_t> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  EXPECT_TRUE(is_proper_coloring(g2, ids));
  EXPECT_TRUE(is_distance2_coloring(g, ids));
}

TEST(Induced, RemapsAndFilters) {
  const Graph g = cycle(6);
  std::vector<bool> keep{true, true, true, false, true, true};
  const auto sub = induced(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 5u);
  // Edges 0-1, 1-2, 4-5 survive; 2-3, 3-4, 5-0 -> 5-0 survives as 4-0.
  EXPECT_EQ(sub.graph.num_edges(), 4u);
  EXPECT_EQ(sub.original.size(), 5u);
  EXPECT_EQ(sub.original[3], 4u);
  EXPECT_EQ(sub.original[4], 5u);
}

TEST(EdgeSubgraph, KeepsNodeSet) {
  const Graph g = cycle(5);
  std::vector<bool> mask(g.num_edges(), false);
  mask[0] = true;
  const Graph sub = edge_subgraph(g, mask);
  EXPECT_EQ(sub.num_nodes(), 5u);
  EXPECT_EQ(sub.num_edges(), 1u);
}

TEST(LineGraph, MisOnLineGraphIsMatching) {
  const Graph g = gnm(40, 120, 12);
  const Graph lg = line_graph(g);
  // Greedy MIS on the line graph, mapped back, must be a maximal matching.
  std::vector<bool> in_set(lg.num_nodes(), false);
  std::vector<bool> blocked(lg.num_nodes(), false);
  for (NodeId v = 0; v < lg.num_nodes(); ++v) {
    if (blocked[v]) continue;
    in_set[v] = true;
    for (NodeId u : lg.neighbors(v)) blocked[u] = true;
  }
  std::vector<EdgeId> matching;
  for (NodeId v = 0; v < lg.num_nodes(); ++v) {
    if (in_set[v]) matching.push_back(v);
  }
  EXPECT_TRUE(is_maximal_matching(g, matching));
}

}  // namespace
}  // namespace dmpc::graph
