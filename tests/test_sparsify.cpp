// Unit tests for the sparsification pipeline: params, degree classes, good
// nodes (Lemma 3 / Corollaries 8 & 16), and the edge/node sparsifiers
// (§3.2 / §4.2 invariants).
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "mpc/cluster.hpp"
#include "mpc/faults.hpp"
#include "sparsify/degree_classes.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/node_sparsifier.hpp"
#include "sparsify/params.hpp"

namespace dmpc::sparsify {
namespace {

using graph::Graph;
using graph::NodeId;

mpc::Cluster roomy_cluster() {
  mpc::ClusterConfig config;
  config.machine_space = 1 << 16;
  config.num_machines = 1 << 10;
  return mpc::Cluster(config);
}

TEST(Params, ClassOfDegreeBands) {
  Params params;
  params.n = 65536;  // 2^16
  params.inv_delta = 8;
  // delta = 1/8 -> n^delta = 4. Classes: [1,4), [4,16), [16,64), ...
  EXPECT_EQ(params.class_of_degree(0), 0u);
  EXPECT_EQ(params.class_of_degree(1), 1u);
  EXPECT_EQ(params.class_of_degree(3), 1u);
  EXPECT_EQ(params.class_of_degree(4), 2u);
  EXPECT_EQ(params.class_of_degree(15), 2u);
  EXPECT_EQ(params.class_of_degree(16), 3u);
  EXPECT_EQ(params.class_of_degree(65535), 8u);
  EXPECT_EQ(params.class_of_degree(1u << 30), 8u);  // clamped to top class
}

TEST(Params, DerivedQuantities) {
  Params params;
  params.n = 65536;
  params.inv_delta = 8;
  EXPECT_DOUBLE_EQ(params.delta(), 0.125);
  EXPECT_NEAR(params.sample_probability(), 0.25, 1e-12);
  EXPECT_EQ(params.group_size(), 256u);       // n^{4 delta} = 4^4
  EXPECT_EQ(params.degree_cap(), 512u);       // 2 n^{4 delta}
  EXPECT_EQ(params.stages_for_class(3), 0u);
  EXPECT_EQ(params.stages_for_class(4), 0u);
  EXPECT_EQ(params.stages_for_class(5), 1u);
  EXPECT_EQ(params.stages_for_class(8), 4u);
  EXPECT_DOUBLE_EQ(params.class_lower(1), 1.0);
  EXPECT_DOUBLE_EQ(params.class_lower(3), 16.0);
}

TEST(DegreeClasses, MassAccounting) {
  Params params;
  params.n = 65536;
  params.inv_delta = 8;
  const std::vector<std::uint32_t> degrees{0, 1, 3, 4, 20, 100};
  const auto classes = classify(params, degrees);
  EXPECT_EQ(classes.class_of[0], 0u);
  EXPECT_EQ(classes.class_of[1], 1u);
  EXPECT_EQ(classes.class_of[4], 3u);
  EXPECT_EQ(classes.degree_mass[1], 4u);    // 1 + 3
  EXPECT_EQ(classes.degree_mass[2], 4u);
  EXPECT_EQ(classes.degree_mass[3], 20u);
  EXPECT_EQ(classes.degree_mass[4], 100u);
}

TEST(GoodNodes, MatchingSelectionSatisfiesCorollary8) {
  auto cluster = roomy_cluster();
  for (std::uint64_t seed : {1, 2, 3}) {
    const Graph g = graph::gnm(400, 3200, seed);
    Params params;
    params.n = g.num_nodes();
    params.inv_delta = 8;
    std::vector<bool> alive(g.num_nodes(), true);
    const auto good = select_matching_good_set(cluster, params, g, alive);
    // Corollary 8 (already asserted inside; re-verify the arithmetic here):
    EXPECT_GE(2 * params.inv_delta * good.b_degree_mass, good.alive_edges);
    // Every E_0 edge touches a B node, and X(v) lists are within E_0.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!good.in_B[v]) {
        EXPECT_TRUE(good.xv[v].empty());
        continue;
      }
      const auto deg = g.degree(v);
      EXPECT_GE(3 * good.xv[v].size(), deg);
      for (auto e : good.xv[v]) EXPECT_TRUE(good.in_E0[e]);
    }
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      if (good.in_E0[e]) {
        EXPECT_TRUE(good.in_B[g.edge(e).u] || good.in_B[g.edge(e).v]);
      }
    }
  }
}

TEST(GoodNodes, MisSelectionSatisfiesCorollary16) {
  auto cluster = roomy_cluster();
  for (std::uint64_t seed : {4, 5}) {
    const Graph g = graph::power_law(500, 3000, 2.5, seed);
    Params params;
    params.n = g.num_nodes();
    params.inv_delta = 8;
    std::vector<bool> alive(g.num_nodes(), true);
    const auto good = select_mis_good_set(cluster, params, g, alive);
    EXPECT_GE(2 * params.inv_delta * good.b_degree_mass, good.alive_edges);
    // Q_0 is exactly the chosen degree class.
    const auto deg = graph::alive_degrees(g, alive);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (good.in_Q0[v]) {
        EXPECT_EQ(params.class_of_degree(deg[v]), good.cls);
      }
    }
  }
}

TEST(GoodNodes, RespectsAliveMask) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(200, 1000, 7);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  for (NodeId v = 0; v < 100; ++v) alive[v] = false;
  const auto good = select_matching_good_set(cluster, params, g, alive);
  for (NodeId v = 0; v < 100; ++v) EXPECT_FALSE(good.in_B[v]);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (good.in_E0[e]) {
      EXPECT_TRUE(alive[g.edge(e).u] && alive[g.edge(e).v]);
    }
  }
}

TEST(EdgeSparsifier, LowClassPassesThrough) {
  auto cluster = roomy_cluster();
  // Bounded-degree graph: the chosen class is <= 4, so E* = E_0.
  const Graph g = graph::random_regular(300, 6, 8);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_matching_good_set(cluster, params, g, alive);
  ASSERT_LE(good.cls, 4u);
  const auto sparse =
      sparsify_edges(cluster, params, g, good, SparsifyConfig{});
  EXPECT_EQ(sparse.stages.size(), 0u);
  EXPECT_EQ(sparse.in_Estar, good.in_E0);
}

TEST(EdgeSparsifier, HighClassReducesDegreesBelowCap) {
  auto cluster = roomy_cluster();
  // Dense-ish random graph forces a high class at small inv_delta scale.
  const Graph g = graph::gnm(512, 16000, 9);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;  // n^delta ~ 2.18, cap = 2 * n^{1/2} ~ 45
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_matching_good_set(cluster, params, g, alive);
  const auto sparse =
      sparsify_edges(cluster, params, g, good, SparsifyConfig{});
  if (good.cls > 4) {
    EXPECT_GE(sparse.stages.size(), 1u);
  }
  EXPECT_LE(sparse.max_degree, params.degree_cap());
  // E* is a subset of E_0 and xv_star lists agree with the mask.
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (sparse.in_Estar[e]) {
      EXPECT_TRUE(good.in_E0[e]);
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (auto e : sparse.xv_star[v]) {
      EXPECT_TRUE(sparse.in_Estar[e]);
    }
  }
  // Never sparsified to empty.
  EXPECT_GT(std::count(sparse.in_Estar.begin(), sparse.in_Estar.end(), true),
            0);
}

TEST(EdgeSparsifier, StageReportsAreCoherent) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(512, 16000, 10);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_matching_good_set(cluster, params, g, alive);
  const auto sparse =
      sparsify_edges(cluster, params, g, good, SparsifyConfig{});
  for (std::size_t j = 0; j < sparse.stages.size(); ++j) {
    const auto& report = sparse.stages[j];
    EXPECT_EQ(report.stage, j + 1);
    EXPECT_LE(report.edges_after, report.edges_before);
    EXPECT_GE(report.window_multiplier, 3.0);  // default slack factor
    EXPECT_GT(report.machines, 0u);
    EXPECT_GT(report.trials, 0u);
  }
}

TEST(NodeSparsifier, ReducesQDegreesBelowCap) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(512, 16000, 11);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_mis_good_set(cluster, params, g, alive);
  const auto sparse = sparsify_nodes(cluster, params, g, alive, good,
                                     SparsifyConfig{});
  EXPECT_LE(sparse.max_q_degree, params.degree_cap());
  // Q' never empty and Q' subset of Q_0.
  std::size_t q_count = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (sparse.in_Qprime[v]) {
      ++q_count;
      EXPECT_TRUE(good.in_Q0[v]);
    }
  }
  EXPECT_GT(q_count, 0u);
}

// Regression: the degenerate all-keep polynomial (seed 0 = constant hash)
// must never be committed — without the global sampling window every stage
// kept 100% of the edges and the extra-stage loop spun uselessly (see
// DESIGN.md §2.0). Every committed stage must strictly shrink its edge set.
TEST(EdgeSparsifier, StagesStrictlyShrink) {
  auto cluster = roomy_cluster();
  for (std::uint64_t seed : {1, 2, 3}) {
    const Graph g = graph::gnm(256, 2048, seed);
    Params params;
    params.n = g.num_nodes();
    params.inv_delta = 16;  // n^delta ~ 1.4: many stages, tiny windows
    std::vector<bool> alive(g.num_nodes(), true);
    const auto good = select_matching_good_set(cluster, params, g, alive);
    const auto sparse = sparsify_edges(cluster, params, g, good,
                                       SparsifyConfig{});
    for (const auto& report : sparse.stages) {
      EXPECT_LT(report.edges_after, report.edges_before)
          << "stage " << report.stage << " committed a no-op seed";
    }
  }
}

TEST(NodeSparsifier, StagesStrictlyShrink) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(512, 16000, 4);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 16;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_mis_good_set(cluster, params, g, alive);
  const auto sparse =
      sparsify_nodes(cluster, params, g, alive, good, SparsifyConfig{});
  // Q strictly shrinks stage over stage (the node-side analogue).
  std::size_t prev = 0;
  for (bool b : good.in_Q0) prev += b;
  (void)prev;
  for (const auto& report : sparse.stages) {
    EXPECT_GT(report.machines, 0u);
  }
  std::size_t q_size = 0;
  for (bool b : sparse.in_Qprime) q_size += b;
  if (!sparse.stages.empty()) {
    std::size_t q0_size = 0;
    for (bool b : good.in_Q0) q0_size += b;
    EXPECT_LT(q_size, q0_size);
  }
}

TEST(NodeSparsifier, LowClassKeepsQ0) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(300, 6, 12);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_mis_good_set(cluster, params, g, alive);
  ASSERT_LE(good.cls, 4u);
  const auto sparse = sparsify_nodes(cluster, params, g, alive, good,
                                     SparsifyConfig{});
  EXPECT_EQ(sparse.stages.size(), 0u);
  EXPECT_EQ(sparse.in_Qprime, good.in_Q0);
}

// An unrecoverable fault inside a stage's seed search is not an exhausted
// window: it surfaces as mpc::FaultError instead of escalating the window
// until the escalation cap.
TEST(Sparsifiers, UnrecoverableSeedSearchFaultPropagates) {
  const Graph g = graph::gnm(512, 16000, 10);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  const std::vector<bool> alive(g.num_nodes(), true);
  mpc::ClusterConfig config;
  config.machine_space = 1 << 16;
  config.num_machines = 1 << 10;
  mpc::ClusterSetup setup;
  setup.faults.add({mpc::FaultKind::kCrash, /*round=*/8, /*machine=*/0});
  setup.recovery.checkpoint = mpc::CheckpointMode::kOff;
  {
    mpc::Cluster cluster(config, setup);
    const auto good = select_matching_good_set(cluster, params, g, alive);
    EXPECT_THROW(sparsify_edges(cluster, params, g, good, SparsifyConfig{}),
                 mpc::FaultError);
  }
  {
    mpc::Cluster cluster(config, setup);
    const auto good = select_mis_good_set(cluster, params, g, alive);
    EXPECT_THROW(
        sparsify_nodes(cluster, params, g, alive, good, SparsifyConfig{}),
        mpc::FaultError);
  }
}

}  // namespace
}  // namespace dmpc::sparsify
