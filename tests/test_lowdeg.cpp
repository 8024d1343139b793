// Tests for the §5 low-degree pipeline: coloring, neighborhoods, phase
// compression, and the combined O(log Delta + log log n) solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>

#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "lowdeg/coloring.hpp"
#include "lowdeg/lowdeg_solver.hpp"
#include "lowdeg/neighborhoods.hpp"
#include "lowdeg/phase_compression.hpp"
#include "mpc/cluster.hpp"
#include "square_reference.hpp"
#include "stage_reference.hpp"

namespace dmpc::lowdeg {
namespace {

using graph::Graph;
using graph::NodeId;

mpc::Cluster roomy_cluster(std::uint32_t threads = 1) {
  mpc::ClusterConfig config;
  config.machine_space = 1 << 16;
  config.num_machines = 1 << 10;
  mpc::ClusterSetup setup;
  setup.threads = threads;
  return mpc::Cluster(config, setup);
}

/// Largest r-hop ball over alive nodes, restricted to alive nodes: a plain
/// serial BFS per node, the reference for lowdeg::largest_ball.
std::uint64_t reference_max_ball(const Graph& g, const std::vector<bool>& alive,
                                 std::uint32_t radius) {
  std::uint64_t best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!alive[v]) continue;
    std::vector<std::uint32_t> dist(g.num_nodes(), UINT32_MAX);
    std::queue<NodeId> frontier;
    dist[v] = 0;
    frontier.push(v);
    std::uint64_t size = 1;
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      if (dist[u] == radius) continue;
      for (NodeId w : g.neighbors(u)) {
        if (!alive[w] || dist[w] != UINT32_MAX) continue;
        dist[w] = dist[u] + 1;
        frontier.push(w);
        ++size;
      }
    }
    best = std::max(best, size);
  }
  return best;
}

TEST(Coloring, ProperWithQuadraticPalette) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(400, 5, 1);
  const auto result = linial_coloring(cluster, g);
  EXPECT_TRUE(graph::is_proper_coloring(g, result.color));
  // O(Delta^2) with modest constants: q <= next prime > k * Delta.
  EXPECT_LE(result.num_colors, 400u);
  EXPECT_GE(result.reduction_steps, 1u);
}

TEST(Coloring, Distance2IsValidAndSmall) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(300, 4, 2);
  const auto result = distance2_coloring(cluster, g);
  EXPECT_TRUE(graph::is_distance2_coloring(g, result.color));
  // Palette min(n, O(Delta^4)): Delta = 4 -> G^2 degree <= 16, fixed point
  // (2*16+k)^2 ~ 1369; at n = 300 the identity palette is already smaller.
  EXPECT_LE(result.num_colors, 300u);
  const Graph big = graph::random_regular(4000, 4, 3);
  const auto big_result = distance2_coloring(cluster, big);
  EXPECT_TRUE(graph::is_distance2_coloring(big, big_result.color));
  EXPECT_LE(big_result.num_colors, 1600u);  // (2*D+8)^2 for D = Delta^2
}

TEST(Coloring, PathGetsTinyPalette) {
  auto cluster = roomy_cluster();
  const Graph g = graph::path(512);
  const auto result = distance2_coloring(cluster, g);
  EXPECT_TRUE(graph::is_distance2_coloring(g, result.color));
  // G^2 of a path has degree <= 4: fixed point (2*4+3)^2 = 121.
  EXPECT_LE(result.num_colors, 128u);
}

TEST(Coloring, ChargesOLogStarRounds) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(400, 5, 3);
  const auto result = linial_coloring(cluster, g);
  EXPECT_LE(result.reduction_steps, 8u);  // log* 400 plus slack
  EXPECT_GE(cluster.metrics().rounds(), result.reduction_steps);
}

TEST(Coloring, Distance2MatchesLinialOnSquare) {
  // The implicit 2-hop walk gives exactly Linial on a materialized G^2:
  // colors, palette and step count, at every thread count.
  const std::vector<Graph> graphs = {
      graph::path(300),
      graph::star(40),
      graph::gnm(500, 1500, 7),
      graph::gnm(600, 150, 8),  // mostly isolated nodes
      graph::disjoint_union(graph::cycle(50), Graph::from_edges(30, {})),
      // Bounded degree at these n takes two steps, so the comparison covers
      // a step whose input is not the identity coloring.
      graph::random_regular(1 << 15, 3, 9),
      graph::random_regular(1 << 16, 4, 10),
  };
  for (const Graph& g : graphs) {
    const auto expected =
        linial_coloring_raw(testref::square(g), exec::Executor::serial());
    if (g.num_nodes() >= (1u << 15)) {
      EXPECT_EQ(expected.reduction_steps, 2u);
    }
    for (std::uint32_t threads : {1u, 4u}) {
      const auto got =
          distance2_coloring_raw(g, exec::Executor::with_threads(threads));
      EXPECT_EQ(got.color, expected.color) << g.num_nodes();
      EXPECT_EQ(got.num_colors, expected.num_colors) << g.num_nodes();
      EXPECT_EQ(got.reduction_steps, expected.reduction_steps)
          << g.num_nodes();
    }
  }
}

TEST(Coloring, EmptyGraphGetsEmptyColoring) {
  // n = 0: no colors to assign; the palette is the single unused color.
  const Graph empty = Graph::from_edges(0, {});
  for (const auto& result :
       {distance2_coloring_raw(empty, exec::Executor::serial()),
        linial_coloring_raw(empty, exec::Executor::serial())}) {
    EXPECT_TRUE(result.color.empty());
    EXPECT_EQ(result.num_colors, 1u);
    EXPECT_EQ(result.reduction_steps, 0u);
  }
}

TEST(Neighborhoods, MaxBallSameAtOneAndFourThreads) {
  const Graph g = graph::disjoint_union(graph::random_regular(3000, 4, 12),
                                        graph::gnm(2000, 3000, 13));
  std::vector<bool> alive(g.num_nodes(), true);
  for (NodeId v = 0; v < g.num_nodes(); v += 3) alive[v] = false;
  for (const std::uint32_t radius : {1u, 2u, 4u}) {
    for (const auto& mask : {std::vector<bool>(g.num_nodes(), true), alive}) {
      const std::uint64_t expected = reference_max_ball(g, mask, radius);
      for (std::uint32_t threads : {1u, 4u}) {
        EXPECT_EQ(largest_ball(g, mask, radius,
                               exec::Executor::with_threads(threads)),
                  expected)
            << radius;
        auto cluster = roomy_cluster(threads);
        EXPECT_EQ(gather_neighborhoods(cluster, g, mask, radius), expected)
            << radius;
      }
    }
  }
}

TEST(Neighborhoods, LargestBallOnCycle) {
  auto cluster = roomy_cluster();
  const Graph g = graph::cycle(12);
  std::vector<bool> alive(12, true);
  EXPECT_EQ(gather_neighborhoods(cluster, g, alive, 2), 5u);  // v, 2 per side
}

TEST(Neighborhoods, RespectsAliveMaskAndRadius) {
  auto cluster = roomy_cluster();
  const Graph g = graph::path(10);
  std::vector<bool> alive(10, true);
  alive[5] = false;  // cuts the path into 0..4 and 6..9
  EXPECT_EQ(gather_neighborhoods(cluster, g, alive, 10), 5u);
  EXPECT_EQ(gather_neighborhoods(cluster, g, std::vector<bool>(10, false), 10),
            0u);
}

TEST(Neighborhoods, ChargesLogRounds) {
  auto cluster = roomy_cluster();
  const Graph g = graph::cycle(32);
  std::vector<bool> alive(32, true);
  gather_neighborhoods(cluster, g, alive, 4);
  EXPECT_EQ(cluster.metrics().by_label().at("lowdeg/gather").rounds,
            3u);  // ceil(log2 4) + 1
}

TEST(PhaseCompression, StageRemovesEdges) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(200, 4, 4);
  const auto coloring = distance2_coloring_raw(g, exec::Executor::serial());
  hash::SmallFamily family(std::max<std::uint32_t>(coloring.num_colors, 2));
  hash::FunctionSequence sequence(family, 3, kPerPhaseCap);
  std::vector<bool> alive(g.num_nodes(), true);
  const auto outcome = run_stage(cluster, g, alive, coloring.color, sequence);
  EXPECT_LT(outcome.edges_after, outcome.edges_before);
  EXPECT_FALSE(outcome.independent.empty());
  // The committed set is independent and consistent with `alive`.
  for (NodeId v : outcome.independent) {
    EXPECT_FALSE(alive[v]);
    for (NodeId u : g.neighbors(v)) EXPECT_FALSE(alive[u]);
  }
  std::vector<bool> in_set(g.num_nodes(), false);
  for (NodeId v : outcome.independent) in_set[v] = true;
  EXPECT_TRUE(graph::is_independent_set(g, in_set));
}

TEST(PhaseCompression, SimulationIsPureFunction) {
  const Graph g = graph::random_regular(100, 4, 5);
  const auto coloring = distance2_coloring_raw(g, exec::Executor::serial());
  hash::SmallFamily family(std::max<std::uint32_t>(coloring.num_colors, 2));
  hash::FunctionSequence sequence(family, 2, 64);
  std::vector<bool> alive(g.num_nodes(), true);
  const auto active = residual(g, alive, exec::Executor::serial()).active;
  std::vector<bool> live_a = alive;
  std::vector<bool> live_b = alive;
  const auto a =
      simulate_stage(g, active, live_a, coloring.color, sequence, 17);
  const auto b =
      simulate_stage(g, active, live_b, coloring.color, sequence, 17);
  EXPECT_EQ(a, b);
  EXPECT_EQ(live_a, live_b);
  // alive is untouched.
  EXPECT_TRUE(std::all_of(alive.begin(), alive.end(), [](bool x) { return x; }));
}

TEST(BestOfCandidates, SameCommitAtOneAndFourThreads) {
  const Graph g = graph::random_regular(200, 4, 4);
  const auto coloring = distance2_coloring_raw(g, exec::Executor::serial());
  hash::SmallFamily family(std::max<std::uint32_t>(coloring.num_colors, 2));
  hash::FunctionSequence sequence(family, 3, kPerPhaseCap);
  std::vector<StageOutcome> outcomes;
  std::vector<std::vector<bool>> alives;
  for (std::uint32_t threads : {1u, 4u}) {
    std::vector<bool> alive(g.num_nodes(), true);
    const auto ex = exec::Executor::with_threads(threads);
    outcomes.push_back(best_of_candidates(
        g, alive, kSequenceBudget, ex,
        [&](std::uint64_t t, std::span<const NodeId> active,
            std::vector<bool>& live) {
          return simulate_stage(g, active, live, coloring.color, sequence,
                                sequence.diverse(t));
        }));
    alives.push_back(alive);
  }
  EXPECT_EQ(outcomes[0].independent, outcomes[1].independent);
  EXPECT_EQ(outcomes[0].edges_after, outcomes[1].edges_after);
  EXPECT_EQ(alives[0], alives[1]);

  // The committed set is independent and its closed neighborhood is gone.
  const auto& outcome = outcomes[0];
  EXPECT_EQ(outcome.edges_before, g.num_edges());
  EXPECT_EQ(outcome.edges_after,
            graph::alive_edge_count(g, alives[0], exec::Executor::serial()));
  std::vector<bool> in_set(g.num_nodes(), false);
  for (NodeId v : outcome.independent) {
    in_set[v] = true;
    EXPECT_FALSE(alives[0][v]);
    for (NodeId u : g.neighbors(v)) EXPECT_FALSE(alives[0][u]);
  }
  EXPECT_TRUE(graph::is_independent_set(g, in_set));
}

TEST(BestOfCandidates, TiesCommitTheLowestCandidate) {
  // On C12, {0, 6} and {3, 9} each leave 4 edges; {5} leaves 8.
  const Graph g = graph::cycle(12);
  const std::vector<std::vector<NodeId>> sets = {{5}, {0, 6}, {3, 9}};
  for (std::uint32_t threads : {1u, 4u}) {
    std::vector<bool> alive(12, true);
    const auto outcome = best_of_candidates(
        g, alive, sets.size(), exec::Executor::with_threads(threads),
        [&](std::uint64_t t, std::span<const NodeId>,
            std::vector<bool>& live) {
          graph::remove_closed(g, sets[t], live);
          return sets[t];
        });
    EXPECT_EQ(outcome.independent, sets[1]);
    EXPECT_EQ(outcome.edges_before, 12u);
    EXPECT_EQ(outcome.edges_after, 4u);
    EXPECT_EQ(graph::alive_edge_count(g, alive, exec::Executor::serial()), 4u);
  }
}

// Runs phase-compression stages until no alive edge is left, through the
// library (residual, per-color table, active-node kernels) at 1 and 4
// threads and through the full-graph reference, comparing every stage's
// joined set, edge counts and committed alive mask.
void expect_stages_match_reference(const Graph& g, std::vector<bool> alive,
                                   const std::vector<std::uint32_t>& color,
                                   std::uint32_t num_colors, unsigned phases) {
  hash::SmallFamily family(std::max<std::uint32_t>(num_colors, 2));
  hash::FunctionSequence sequence(family, phases, kPerPhaseCap);
  const std::uint64_t limit =
      std::min<std::uint64_t>(kSequenceBudget, sequence.sequence_count());
  std::vector<bool> ref_alive = alive;
  std::vector<std::vector<bool>> alives(2, alive);
  const std::vector<std::uint32_t> threads = {1, 4};
  std::uint64_t stages = 0;
  const auto serial = exec::Executor::serial();
  while (graph::alive_edge_count(g, ref_alive, serial) > 0) {
    ASSERT_LT(stages++, 1000u);
    const auto ref = testref::best_of_candidates(g, ref_alive, limit, color,
                                                 sequence);
    ASSERT_FALSE(ref.independent.empty());
    for (std::size_t i = 0; i < threads.size(); ++i) {
      const auto outcome = best_of_candidates(
          g, alives[i], limit, exec::Executor::with_threads(threads[i]),
          [&](std::uint64_t t, std::span<const NodeId> active,
              std::vector<bool>& live) {
            return simulate_stage(g, active, live, color, sequence,
                                  sequence.diverse(t));
          });
      EXPECT_EQ(outcome.independent, ref.independent)
          << "stage " << stages << ", " << threads[i] << " threads";
      EXPECT_EQ(outcome.edges_before, ref.edges_before);
      EXPECT_EQ(outcome.edges_after, ref.edges_after);
      EXPECT_EQ(alives[i], ref_alive);
    }
  }
  EXPECT_GT(stages, 0u);
}

TEST(PhaseCompression, ResidualListsAliveNodesWithAnAliveNeighbor) {
  // Path 0-1-2-3-4-5 with 2 dead: 0-1 and 3-4-5 stay, every node active
  // but 2; with 1 dead too, 0 is alive but isolated.
  const Graph g = graph::path(6);
  std::vector<bool> alive(6, true);
  alive[2] = false;
  for (std::uint32_t threads : {1u, 4u}) {
    const auto ex = exec::Executor::with_threads(threads);
    const auto res = residual(g, alive, ex);
    EXPECT_EQ(res.active, (std::vector<NodeId>{0, 1, 3, 4, 5}));
    EXPECT_EQ(res.edges, 3u);
    auto fewer = alive;
    fewer[1] = false;
    const auto rest = residual(g, fewer, ex);
    EXPECT_EQ(rest.active, (std::vector<NodeId>{3, 4, 5}));
    EXPECT_EQ(rest.edges, 2u);
  }
  // Enough nodes for several residual chunks.
  const Graph big = graph::random_regular(20000, 4, 3);
  std::vector<bool> half(big.num_nodes());
  for (NodeId v = 0; v < big.num_nodes(); ++v) half[v] = v % 3 != 0;
  const auto res = residual(big, half, exec::Executor::with_threads(4));
  const auto serial = exec::Executor::serial();
  EXPECT_EQ(res.edges, graph::alive_edge_count(big, half, serial));
  std::vector<NodeId> expected;
  const auto deg = graph::alive_degrees(big, half, serial);
  for (NodeId v = 0; v < big.num_nodes(); ++v) {
    if (half[v] && deg[v] > 0) expected.push_back(v);
  }
  EXPECT_EQ(res.active, expected);
}

TEST(PhaseCompression, MatchesFullGraphReferenceOnPartlyDeadRegular) {
  const Graph g = graph::random_regular(600, 6, 11);
  const auto coloring = distance2_coloring_raw(g, exec::Executor::serial());
  std::vector<bool> alive(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) alive[v] = v % 4 != 1;
  expect_stages_match_reference(g, alive, coloring.color, coloring.num_colors,
                                /*phases=*/1);
}

TEST(PhaseCompression, MatchesFullGraphReferenceWithIsolatedAliveNodes) {
  // A sparse gnm leaves isolated nodes; the dead hubs strand more alive
  // nodes whose every neighbor is dead. Neither is active nor a winner.
  const Graph g = graph::disjoint_union(graph::gnm(500, 300, 4),
                                        graph::star(40));
  const auto coloring = distance2_coloring_raw(g, exec::Executor::serial());
  std::vector<bool> alive(g.num_nodes(), true);
  alive[500] = false;  // the star's center
  for (NodeId v = 0; v < 500; v += 9) alive[v] = false;
  expect_stages_match_reference(g, alive, coloring.color, coloring.num_colors,
                                /*phases=*/2);
}

TEST(PhaseCompression, MatchesFullGraphReferenceOverThreePhases) {
  for (std::uint64_t seed : {5, 6}) {
    const Graph g = graph::random_regular(500, 5, seed);
    const auto coloring = distance2_coloring_raw(g, exec::Executor::serial());
    expect_stages_match_reference(g, std::vector<bool>(g.num_nodes(), true),
                                  coloring.color, coloring.num_colors,
                                  /*phases=*/3);
  }
}

TEST(PhaseCompression, MatchesFullGraphReferenceWithIdentityColors) {
  // cc_mis's fallback when 2-hop balls do not fit: color[v] = v, C = n.
  const Graph g = graph::gnm(400, 6000, 8);
  std::vector<std::uint32_t> color(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) color[v] = v;
  std::vector<bool> alive(g.num_nodes(), true);
  for (NodeId v = 0; v < g.num_nodes(); v += 7) alive[v] = false;
  expect_stages_match_reference(g, alive, color, g.num_nodes(),
                                /*phases=*/1);
}

TEST(LowDegSolver, PhasesScaleInverselyWithLogDelta) {
  const auto l_small = phases_for(1 << 16, 2);
  const auto l_big = phases_for(1 << 16, 64);
  EXPECT_GT(l_small, l_big);
  EXPECT_GE(l_big, 1u);
  EXPECT_LE(l_small, kMaxPhases);
}

TEST(LowDegSolver, PhasesIsOneWhenNoBallFits) {
  // space / 4 < Delta: the unclamped l is negative.
  EXPECT_EQ(phases_for(64, 299), 1u);
}

TEST(LowDegSolver, MisValidOnBoundedDegree) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::random_regular(400, 6, seed);
    const auto result = lowdeg_mis(g, LowDegConfig{});
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.in_set));
    EXPECT_GE(result.phases_per_stage, 1u);
    EXPECT_GT(result.colors, 0u);
  }
}

TEST(LowDegSolver, MisDeterministic) {
  const Graph g = graph::random_regular(300, 5, 3);
  const auto a = lowdeg_mis(g, LowDegConfig{});
  const auto b = lowdeg_mis(g, LowDegConfig{});
  EXPECT_EQ(a.in_set, b.in_set);
  EXPECT_EQ(a.metrics.rounds(), b.metrics.rounds());
}

TEST(LowDegSolver, StageCountLogarithmicInDelta) {
  // Theorem 1 shape: stages = O(log Delta) once the O(log log n)
  // preprocessing is done. Generous constant at this scale.
  const Graph g = graph::random_regular(2048, 4, 4);
  const auto result = lowdeg_mis(g, LowDegConfig{});
  EXPECT_LE(result.stages, 40u);
}

TEST(LowDegSolver, StructuredFamilies) {
  for (const Graph& g : {graph::cycle(128), graph::path(128),
                         graph::grid(12, 12), graph::random_tree(128, 5)}) {
    const auto result = lowdeg_mis(g, LowDegConfig{});
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.in_set));
  }
}

TEST(LowDegSolver, EmptyAndEdgelessGraphs) {
  const Graph edgeless = Graph::from_edges(5, {});
  const auto result = lowdeg_mis(edgeless, LowDegConfig{});
  EXPECT_EQ(std::count(result.in_set.begin(), result.in_set.end(), true), 5);
}

TEST(LowDegSolver, MatchingViaLineGraph) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::random_regular(200, 5, seed + 10);
    const auto result = lowdeg_matching(g, LowDegConfig{});
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  }
}

TEST(LowDegSolver, MatchingOnPath) {
  const Graph g = graph::path(50);
  const auto result = lowdeg_matching(g, LowDegConfig{});
  EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  EXPECT_GE(result.matching.size(), 17u);  // maximal matching of P50 >= 17
}

}  // namespace
}  // namespace dmpc::lowdeg
