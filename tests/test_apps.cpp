// Tests for the application reductions (vertex cover, dominating set,
// (Delta+1)-coloring).
#include <gtest/gtest.h>

#include "apps/derand_coloring.hpp"
#include "apps/reductions.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"

namespace dmpc::apps {
namespace {

using graph::Graph;
using graph::NodeId;

bool is_vertex_cover(const Graph& g, const std::vector<bool>& cover) {
  for (const auto& e : g.edges()) {
    if (!cover[e.u] && !cover[e.v]) return false;
  }
  return true;
}

bool is_dominating_set(const Graph& g, const std::vector<bool>& set) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (set[v]) continue;
    bool dominated = false;
    for (NodeId u : g.neighbors(v)) {
      if (set[u]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

TEST(VertexCover, ValidAndTwoApprox) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::gnm(200, 1200, seed);
    const auto result = vertex_cover_2approx(g);
    EXPECT_TRUE(is_vertex_cover(g, result.in_cover));
    // |cover| = 2 |M| and OPT >= |M| for a maximal matching M.
    EXPECT_EQ(result.cover_size, 2 * result.matching_size);
    EXPECT_GT(result.matching_size, 0u);
  }
}

TEST(VertexCover, StarNeedsOnlyHub) {
  const Graph g = graph::star(30);
  const auto result = vertex_cover_2approx(g);
  EXPECT_TRUE(is_vertex_cover(g, result.in_cover));
  EXPECT_EQ(result.cover_size, 2u);  // one matched edge: hub + one leaf
}

TEST(VertexCover, EmptyGraph) {
  const Graph g = Graph::from_edges(5, {});
  const auto result = vertex_cover_2approx(g);
  EXPECT_EQ(result.cover_size, 0u);
}

TEST(DominatingSet, MisDominates) {
  for (const Graph& g : {graph::gnm(200, 800, 3), graph::grid(10, 10),
                         graph::random_tree(150, 4)}) {
    const auto result = dominating_set(g);
    EXPECT_TRUE(is_dominating_set(g, result.in_set));
    EXPECT_GT(result.set_size, 0u);
  }
}

TEST(Coloring, ProperWithinPalette) {
  for (const Graph& g :
       {graph::random_regular(100, 4, 5), graph::cycle(31), graph::path(40),
        graph::complete(8)}) {
    const auto result = delta_plus_one_coloring(g);
    EXPECT_TRUE(graph::is_proper_coloring(g, result.color));
    EXPECT_LE(result.colors_used, g.max_degree() + 1);
  }
}

TEST(Coloring, CompleteGraphUsesFullPalette) {
  const Graph g = graph::complete(6);
  const auto result = delta_plus_one_coloring(g);
  EXPECT_EQ(result.colors_used, 6u);  // K6 needs exactly Delta+1 = 6
}

TEST(Coloring, Deterministic) {
  const Graph g = graph::random_regular(80, 5, 6);
  const auto a = delta_plus_one_coloring(g);
  const auto b = delta_plus_one_coloring(g);
  EXPECT_EQ(a.color, b.color);
}

TEST(DerandColoring, ProperWithinPaletteAcrossFamilies) {
  for (const Graph& g :
       {graph::random_regular(200, 5, 1), graph::gnm(200, 1200, 2),
        graph::cycle(41), graph::complete(10), graph::star(30),
        graph::grid(9, 9)}) {
    const auto result = derand_coloring(g);
    EXPECT_TRUE(graph::is_proper_coloring(g, result.color));
    EXPECT_LE(result.colors_used, g.max_degree() + 1);
  }
}

TEST(DerandColoring, Deterministic) {
  const Graph g = graph::power_law(300, 1200, 2.5, 3);
  const auto a = derand_coloring(g);
  const auto b = derand_coloring(g);
  EXPECT_EQ(a.color, b.color);
  EXPECT_EQ(a.metrics.rounds(), b.metrics.rounds());
}

TEST(DerandColoring, LogarithmicRounds) {
  const Graph g = graph::gnm(1024, 8192, 4);
  const auto result = derand_coloring(g);
  EXPECT_LE(result.rounds, 40u);  // O(log n) trial rounds
}

TEST(DerandColoring, AgreesWithReductionOnPalette) {
  // Both colorings are proper and fit Delta+1: K6 needs all 6 colors.
  const Graph g = graph::complete(6);
  const auto native = derand_coloring(g);
  const auto reduced = delta_plus_one_coloring(g);
  EXPECT_EQ(native.colors_used, 6u);
  EXPECT_EQ(reduced.colors_used, 6u);
}

TEST(DerandColoring, PinnedColorsAndLedger) {
  // Colors, trial rounds and the one ledger row on two fixed graphs. Each
  // round charges its seed batch (2 * tree depth rounds, K words per
  // machine) and the 2-round palette exchange under coloring/commit.
  struct Pin {
    Graph g;
    std::vector<std::uint32_t> color;
    std::uint64_t rounds;
    mpc::LabelCost commit;
  };
  const std::vector<Pin> pins = {
      {graph::grid(6, 6),
       {0, 1, 0, 4, 3, 4, 3, 2, 3, 2, 1, 0, 1, 0, 4, 0, 4, 3,
        4, 3, 2, 1, 2, 1, 0, 1, 0, 4, 0, 4, 3, 2, 3, 2, 1, 2},
       1,
       {4, 336, 0}},
      {graph::gnm(64, 256, 9),
       {12, 14, 16, 1,  1,  5,  7,  9,  11, 13, 15, 3, 14, 4,  4,  8,
        10, 12, 13, 16, 1,  13, 5,  7,  9,  11, 13, 15, 13, 3,  5,  6,
        9,  11, 13, 15, 9,  15, 4,  5,  8,  10, 12, 14, 16, 4,  3,  5,
        16, 9,  11, 13, 15, 0,  8,  4,  0,  8,  10, 12, 14, 0,  2,  4},
       2,
       {8, 2368, 0}},
  };
  for (const Pin& pin : pins) {
    const auto result = derand_coloring(pin.g);
    EXPECT_EQ(result.color, pin.color);
    EXPECT_EQ(result.rounds, pin.rounds);
    ASSERT_EQ(result.metrics.by_label().size(), 1u);
    EXPECT_EQ(result.metrics.by_label().at("coloring/commit"), pin.commit);
    EXPECT_EQ(result.metrics.rounds(), pin.commit.rounds);
  }
}

TEST(DerandColoring, EdgelessGraph) {
  const Graph g = Graph::from_edges(4, {});
  const auto result = derand_coloring(g);
  EXPECT_EQ(result.colors_used, 1u);
}

}  // namespace
}  // namespace dmpc::apps
