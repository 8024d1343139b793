// Unit tests for the core graph type, builder, validators, and IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <vector>

#include "exec/parallel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/validate.hpp"
#include "support/check.hpp"

namespace dmpc::graph {
namespace {

Graph triangle_plus_pendant() {
  // 0-1, 1-2, 0-2 triangle; 2-3 pendant.
  return Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
}

TEST(Graph, BasicAccessors) {
  const Graph g = triangle_plus_pendant();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, NeighborsSortedAndAligned) {
  const Graph g = triangle_plus_pendant();
  auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0u);
  EXPECT_EQ(nb[1], 1u);
  EXPECT_EQ(nb[2], 3u);
  auto inc = g.incident_edges(2);
  for (std::size_t i = 0; i < nb.size(); ++i) {
    const Edge& e = g.edge(inc[i]);
    EXPECT_TRUE(e.u == 2 || e.v == 2);
    EXPECT_EQ(g.other_endpoint(inc[i], 2), nb[i]);
  }
}

TEST(Graph, CanonicalEdgeOrder) {
  const Graph g = Graph::from_edges(3, {{2, 1}, {1, 0}});
  EXPECT_EQ(g.edge(0).u, 0u);
  EXPECT_EQ(g.edge(0).v, 1u);
  EXPECT_EQ(g.edge(1).u, 1u);
  EXPECT_EQ(g.edge(1).v, 2u);
}

TEST(Graph, DuplicatesCollapse) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, RejectsSelfLoopsAndOutOfRange) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), CheckFailure);
  EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), CheckFailure);
}

TEST(Graph, FindEdge) {
  const Graph g = triangle_plus_pendant();
  EXPECT_NE(g.find_edge(0, 1), kNoEdge);
  EXPECT_EQ(g.find_edge(0, 1), g.find_edge(1, 0));
  EXPECT_EQ(g.find_edge(0, 3), kNoEdge);
  EXPECT_EQ(g.find_edge(0, 0), kNoEdge);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(1, 3));
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Graph, AliveHelpers) {
  const Graph g = triangle_plus_pendant();
  std::vector<bool> alive(4, true);
  const auto serial = exec::Executor::serial();
  EXPECT_EQ(alive_edge_count(g, alive, serial), 4u);
  EXPECT_EQ(alive_degrees(g, alive, serial)[2], 3u);
  alive[2] = false;  // removes 3 edges
  EXPECT_EQ(alive_edge_count(g, alive, serial), 1u);
  const auto deg = alive_degrees(g, alive, serial);
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 1u);
  EXPECT_EQ(deg[2], 0u);
  EXPECT_EQ(deg[3], 0u);
}

TEST(Graph, WinnersBreakTiesById) {
  const Graph g = triangle_plus_pendant();
  const std::vector<bool> alive(4, true);
  EXPECT_EQ(winners(g, alive, {5, 5, 5, 5}), (std::vector<NodeId>{0}));
  EXPECT_EQ(winners(g, alive, {9, 9, 9, 1}), (std::vector<NodeId>{0, 3}));
}

TEST(Graph, WinnersNeedALiveNeighborAndIgnoreDeadOnes) {
  const Graph g = triangle_plus_pendant();
  std::vector<bool> alive(4, true);
  alive[2] = false;
  // 2 holds the smallest z but is dead; 3 is alive with no live neighbor.
  EXPECT_EQ(winners(g, alive, {7, 3, 0, 0}), (std::vector<NodeId>{1}));
  EXPECT_TRUE(winners(g, std::vector<bool>(4, false), {0, 0, 0, 0}).empty());
}

TEST(Graph, RemoveClosedClearsNodesAndNeighbors) {
  const Graph g = triangle_plus_pendant();
  std::vector<bool> alive(4, true);
  remove_closed(g, {3}, alive);
  EXPECT_EQ(alive, (std::vector<bool>{true, true, false, false}));
  remove_closed(g, {0}, alive);
  EXPECT_EQ(alive, std::vector<bool>(4, false));
}

TEST(Graph, MaskedDegrees) {
  const Graph g = triangle_plus_pendant();
  std::vector<bool> mask(g.num_edges(), false);
  mask[g.find_edge(0, 1)] = true;
  mask[g.find_edge(2, 3)] = true;
  const auto deg = masked_degrees(g, mask, exec::Executor::serial());
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 1u);
  EXPECT_EQ(deg[2], 1u);
  EXPECT_EQ(deg[3], 1u);
}

TEST(Builder, TryAddFiltersInvalid) {
  GraphBuilder b(3);
  EXPECT_FALSE(b.try_add_edge(0, 0));
  EXPECT_FALSE(b.try_add_edge(0, 5));
  EXPECT_TRUE(b.try_add_edge(0, 2));
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Validate, IndependentSet) {
  const Graph g = triangle_plus_pendant();
  EXPECT_TRUE(is_independent_set(g, {true, false, false, true}));
  EXPECT_FALSE(is_independent_set(g, {true, true, false, false}));
  EXPECT_TRUE(is_maximal_independent_set(g, {true, false, false, true}));
  // {0} alone: node 3 is not dominated.
  EXPECT_FALSE(is_maximal_independent_set(g, {true, false, false, false}));
  // {1, 3} is independent and maximal (0 and 2 dominated).
  EXPECT_TRUE(is_maximal_independent_set(g, {false, true, false, true}));
}

TEST(Validate, Matching) {
  const Graph g = triangle_plus_pendant();
  const EdgeId e01 = g.find_edge(0, 1);
  const EdgeId e23 = g.find_edge(2, 3);
  const EdgeId e02 = g.find_edge(0, 2);
  EXPECT_TRUE(is_matching(g, {e01, e23}));
  EXPECT_FALSE(is_matching(g, {e01, e02}));  // share node 0
  EXPECT_TRUE(is_maximal_matching(g, {e01, e23}));
  EXPECT_FALSE(is_maximal_matching(g, {e01}));  // edge 2-3 uncovered
  EXPECT_FALSE(is_matching(g, {static_cast<EdgeId>(99)}));
}

TEST(Validate, Coloring) {
  const Graph g = triangle_plus_pendant();
  EXPECT_TRUE(is_proper_coloring(g, {0, 1, 2, 0}));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0, 1}));
  // Distance-2: nodes 0 and 3 share neighbor 2, so equal colors fail.
  EXPECT_FALSE(is_distance2_coloring(g, {0, 1, 2, 0}));
  EXPECT_TRUE(is_distance2_coloring(g, {0, 1, 2, 3}));
}

TEST(Validate, MatchedNodes) {
  const Graph g = triangle_plus_pendant();
  const auto covered = matched_nodes(g, {g.find_edge(2, 3)});
  EXPECT_FALSE(covered[0]);
  EXPECT_FALSE(covered[1]);
  EXPECT_TRUE(covered[2]);
  EXPECT_TRUE(covered[3]);
}

TEST(Io, RoundTrip) {
  const Graph g = triangle_plus_pendant();
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge(e), g.edge(e));
  }
}

// The reader must build exactly the CSR from_edges builds, whatever the
// order, orientation and line decoration of the input.
TEST(Io, ShuffledRoundTripMatchesFromEdges) {
  const Graph g = gnm(4096, 32768, 11);
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  std::mt19937_64 rng(5);
  std::shuffle(edges.begin(), edges.end(), rng);
  std::ostringstream text;
  text << "# shuffled gnm\r\n" << g.num_nodes() << ' ' << edges.size()
       << "\r\n";
  for (Edge& e : edges) {
    if (rng() & 1) std::swap(e.u, e.v);
    if (rng() % 8 == 0) text << "# between edges\r\n";
    text << e.u << ' ' << e.v << "\r\n";
  }
  const Graph want = Graph::from_edges(g.num_nodes(), edges);
  const GraphExtent& w = want.extents()[0];
  const std::size_t n = want.num_nodes();
  const std::size_t m = want.num_edges();
  for (const DuplicatePolicy policy :
       {DuplicatePolicy::kReject, DuplicatePolicy::kDedupe}) {
    EdgeListLimits limits;
    limits.duplicates = policy;
    std::istringstream in(text.str());
    const Graph got = read_edge_list(in, limits);
    ASSERT_EQ(got.num_nodes(), want.num_nodes());
    ASSERT_EQ(got.num_edges(), want.num_edges());
    ASSERT_EQ(got.extents().size(), 1u);
    const GraphExtent& h = got.extents()[0];
    EXPECT_TRUE(std::equal(w.offsets, w.offsets + n + 1, h.offsets));
    EXPECT_TRUE(std::equal(w.adjacency, w.adjacency + 2 * m, h.adjacency));
    EXPECT_TRUE(std::equal(w.incident, w.incident + 2 * m, h.incident));
    EXPECT_TRUE(std::equal(w.edges, w.edges + m, h.edges));
  }
}

TEST(Io, CommentsAndHeader) {
  std::stringstream ss("# comment\n4 2\n0 1\n2 3 # trailing\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, RejectsMalformed) {
  std::stringstream empty("");
  EXPECT_THROW(read_edge_list(empty), CheckFailure);
  std::stringstream bad("3 1\n0\n");
  EXPECT_THROW(read_edge_list(bad), CheckFailure);
  std::stringstream out_of_range("2 1\n0 5\n");
  EXPECT_THROW(read_edge_list(out_of_range), CheckFailure);
}

}  // namespace
}  // namespace dmpc::graph
