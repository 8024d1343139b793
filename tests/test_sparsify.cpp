// Unit tests for the sparsification pipeline: params, degree classes, good
// nodes (Lemma 3 / Corollaries 8 & 16), and the edge/node sparsifiers
// (§3.2 / §4.2 invariants).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "api/solver.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mpc/cluster.hpp"
#include "mpc/faults.hpp"
#include "sparsify/degree_classes.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/node_sparsifier.hpp"
#include "sparsify/params.hpp"
#include "sparsify/stage.hpp"

namespace dmpc::sparsify {
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
    const auto deg =
        graph::alive_degrees(g, alive, exec::Executor::serial());
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
    EXPECT_LE(report.items_after, report.items_before);
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
  EXPECT_LE(sparse.max_degree, params.degree_cap());
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
      EXPECT_LT(report.items_after, report.items_before)
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
  // Q strictly shrinks stage over stage (the node-side analogue), and each
  // stage samples exactly what the previous one kept.
  std::uint64_t q_size = 0;
  for (bool b : good.in_Q0) q_size += b;
  ASSERT_FALSE(sparse.stages.empty());
  for (const auto& report : sparse.stages) {
    EXPECT_GT(report.machines, 0u);
    EXPECT_EQ(report.items_before, q_size) << "stage " << report.stage;
    EXPECT_LT(report.items_after, report.items_before)
        << "stage " << report.stage << " committed a no-op seed";
    q_size = report.items_after;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(std::count(
                sparse.in_Qprime.begin(), sparse.in_Qprime.end(), true)),
            q_size);
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

// One window of the `count` ids 0..count-1 on `side`, bounded at `mult`; id
// x weighs weight[x] (an empty `weight` leaves the ids unweighted).
Window bounded(const std::vector<double>& weight, std::uint64_t count,
               Side side, double q, double mult) {
  WindowSet set;
  for (std::uint64_t x = 0; x < count; ++x) {
    set.ids.push_back(x);
    set.slots.push_back(static_cast<std::uint32_t>(x));
  }
  if (!weight.empty()) {
    set.weight.assign(weight.begin(), weight.begin() + count);
  }
  set.windows.push_back({0, count, side});
  Window w = set.windows.at(0);
  set_bounds(w, set, q, mult);
  return w;
}

// A source of one window on `side` over `ids`, in order.
WindowSource one_window(Side side, std::vector<std::uint64_t> ids) {
  return {1, side,
          [ids = std::move(ids)](std::uint64_t, IdSink& sink) {
            for (const std::uint64_t id : ids) sink(id);
          }};
}

// Golden (seed, trials, machines, window multiplier) of every stage of both
// sparsifiers: any change to the windows, the bound rule, the objective or
// the seed walk moves them.
struct GoldenStage {
  std::uint32_t stage;
  std::uint64_t seed;
  std::uint64_t trials;
  std::uint64_t machines;
  double window_multiplier;
};

void expect_golden(const std::vector<StageReport>& stages,
                   const std::vector<GoldenStage>& golden) {
  ASSERT_EQ(stages.size(), golden.size());
  for (std::size_t j = 0; j < golden.size(); ++j) {
    EXPECT_EQ(stages[j].stage, golden[j].stage);
    EXPECT_EQ(stages[j].seed, golden[j].seed) << "stage " << j + 1;
    EXPECT_EQ(stages[j].trials, golden[j].trials) << "stage " << j + 1;
    EXPECT_EQ(stages[j].machines, golden[j].machines) << "stage " << j + 1;
    EXPECT_EQ(stages[j].window_multiplier, golden[j].window_multiplier)
        << "stage " << j + 1;
  }
}

TEST(Sparsifiers, GoldenStageSequence) {
  const Graph g = graph::gnm(512, 16000, 10);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  const std::vector<bool> alive(g.num_nodes(), true);
  // An escalating node instance: on p = 2053 (prime, so ids are exactly the
  // field) node v is joined to the 48-term progression v + i r_v mod p with
  // its own step r_v. Under a pairwise (linear) hash a window of such a
  // progression keeps all or nothing of it whenever slope * r_v is small
  // mod p; with over 2000 distinct steps no seed in the budget makes every
  // window good at the default slack, so stages 1 and 2 escalate.
  constexpr NodeId p = 2053;
  graph::GraphBuilder builder(p);
  for (NodeId v = 0; v < p; ++v) {
    const std::uint64_t step = 1 + (1009ULL * v + 17) % (p - 2);
    for (std::uint64_t i = 1; i <= 48; ++i) {
      builder.try_add_edge(v, static_cast<NodeId>((v + step * i) % p));
    }
  }
  const Graph dense = std::move(builder).build();
  Params dense_params;
  dense_params.n = p;
  dense_params.inv_delta = 12;
  const std::vector<bool> all(p, true);
  // The host spreads each candidate's window scan over threads() threads;
  // the stages must not see it. The escalating instance exhausts 64-seed
  // batches and commits at trial 3.
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    {
      auto cluster = roomy_cluster(threads);
      const auto good = select_matching_good_set(cluster, params, g, alive);
      const auto sparse =
          sparsify_edges(cluster, params, g, good, SparsifyConfig{});
      expect_golden(sparse.stages, {{1, 0x00b1e7cfb3de54cfULL, 2, 845, 3.0},
                                    {2, 0x005119d0504d134fULL, 1, 845, 3.0}});
    }
    {
      auto cluster = roomy_cluster(threads);
      const auto good = select_mis_good_set(cluster, params, g, alive);
      const auto sparse =
          sparsify_nodes(cluster, params, g, alive, good, SparsifyConfig{});
      expect_golden(sparse.stages, {{1, 0x0000000cb6d51d1fULL, 1, 998, 3.0},
                                    {2, 0x0000000e335b661eULL, 1, 748, 3.0}});
    }
    {
      auto cluster = roomy_cluster(threads);
      const auto good = select_mis_good_set(cluster, dense_params, dense, all);
      // Each Q_0 id sits in the type-B mass windows of many B neighbours.
      std::vector<std::uint32_t> mass_windows(p, 0);
      for (NodeId v = 0; v < p; ++v) {
        if (!good.in_B[v]) continue;
        for (NodeId u : dense.neighbors(v)) mass_windows[u] += good.in_Q0[u];
      }
      ASSERT_GT(*std::max_element(mass_windows.begin(), mass_windows.end()),
                1u);
      const auto sparse = sparsify_nodes(cluster, dense_params, dense, all,
                                         good, SparsifyConfig{/*hash_k=*/2});
      expect_golden(sparse.stages, {{1, 0x000000000000ad8bULL, 65, 3981, 6.0},
                                    {2, 0x0000000000404a60ULL, 65, 3075, 6.0},
                                    {3, 0x00000000001d007cULL, 3, 2592, 3.0},
                                    {4, 0x000000000002bbe5ULL, 1, 2335, 3.0}});
    }
    {
      // A hand-built stage whose only binding window is its last one, past
      // the first kScanGrain-window chunk of the early-reject scan: 600
      // one-id windows that every seed satisfies (a kept id sits exactly on
      // the upper bound, hi = 1), then 1000 copies of id 7, which keep all
      // or nothing and force the escalation to x24 that drops id 7.
      auto cluster = roomy_cluster(threads);
      const StageHash stage_hash(64, 0.25, 4);
      std::vector<WindowSource> sources;
      for (std::uint64_t w = 0; w < 600; ++w) {
        sources.push_back(one_window(Side::kUpper, {w % 64}));
      }
      sources.push_back(
          one_window(Side::kBoth, std::vector<std::uint64_t>(1000, 7)));
      WindowSet set = build_windows(cluster.executor(),
                                    std::vector<bool>(64, true), sources);
      expect_golden({find_stage_seed(cluster, stage_hash, 1, set, "test")},
                    {{1, 0x000000000114ccd3ULL, 193, 601, 24.0}});
      EXPECT_EQ(set.windows.front().hi, 1u);
    }
  }
}

// Hand-computed bounds: 100 points at q = 1/4 have mean 25 and binomial
// sigma sqrt(18.75) = 4.3301, so the half-width is 3 * 5.3301 = 15.990 at
// multiplier 3 and 31.981 at 6.
TEST(StageWindows, CountBoundsPerSide) {
  const std::vector<double> none;
  const double q = 0.25;
  struct Case {
    Side side;
    double mult;
    std::uint64_t lo;
    std::uint64_t hi;
  };
  const Case cases[] = {
      {Side::kUpper, 3.0, 0, 41},   {Side::kUpper, 6.0, 0, 57},
      {Side::kLower, 3.0, 9, 100},  {Side::kLower, 6.0, 0, 100},
      {Side::kBoth, 3.0, 9, 41},    {Side::kBoth, 6.0, 0, 57},
  };
  for (const Case& c : cases) {
    const Window w = bounded(none, 100, c.side, q, c.mult);
    EXPECT_EQ(w.lo, c.lo) << "side " << static_cast<int>(c.side) << " x"
                          << c.mult;
    EXPECT_EQ(w.hi, c.hi) << "side " << static_cast<int>(c.side) << " x"
                          << c.mult;
  }
  // The upper bound never exceeds the window: for 8 points, 3 * (1.22 + 1)
  // above a mean of 2 is 8.67, clipped to 8.
  EXPECT_EQ(bounded(none, 8, Side::kUpper, q, 3.0).hi, 8u);
}

// Hand-computed mass bound: 200 points of weight 1/4 and 200 of weight 1/2
// give M = 150, sum w^2 = 62.5 and max w = 1/2, so at q = 1/4 the bound is
// 37.5 - mult * (sqrt(0.1875 * 62.5) + 0.5) = 37.5 - mult * 3.9233.
TEST(StageWindows, MassBound) {
  std::vector<double> weighted;
  for (std::uint64_t x = 0; x < 400; ++x) {
    weighted.push_back(x < 200 ? 0.25 : 0.5);
  }
  EXPECT_NEAR(bounded(weighted, 400, Side::kMass, 0.25, 3.0).mass_lo,
              25.730202, 1e-6);
  EXPECT_NEAR(bounded(weighted, 400, Side::kMass, 0.25, 6.0).mass_lo,
              13.960404, 1e-6);
  // A window whose slack exceeds its expected mass bounds nothing.
  EXPECT_EQ(bounded(weighted, 4, Side::kMass, 0.25, 3.0).mass_lo, 0.0);
}

// The mask's ids are bound once each, ascending, and every enumerated id is
// stored as its slot in that table.
TEST(StageWindows, SlotTableBindsEachIdOnce) {
  const exec::Executor serial;
  std::vector<bool> mask(200, false);
  std::vector<std::uint64_t> expected;
  for (std::uint64_t x = 3; x < mask.size(); x += 7) {
    mask[x] = true;
    expected.push_back(x);
  }
  std::vector<std::uint64_t> pushed;
  for (std::uint64_t x = mask.size(); x-- > 0;) {
    if (!mask[x]) continue;
    for (std::uint64_t copies = 0; copies < 1 + x % 3; ++copies) {
      pushed.push_back(x);
    }
  }
  const WindowSet set =
      build_windows(serial, mask, {one_window(Side::kUpper, pushed)});
  EXPECT_EQ(set.ids, expected);
  ASSERT_EQ(set.slots.size(), pushed.size());
  for (std::size_t i = 0; i < pushed.size(); ++i) {
    EXPECT_EQ(set.ids.at(set.slots[i]), pushed[i]) << "entry " << i;
  }
  // An id off the mask is rejected, inside its range or past its end.
  EXPECT_THROW(build_windows(serial, mask, {one_window(Side::kUpper, {4})}),
               CheckFailure);
  EXPECT_THROW(
      build_windows(serial, mask, {one_window(Side::kUpper, {mask.size()})}),
      CheckFailure);
}

// The global window covers exactly the ids set in the mask, on both sides.
TEST(StageWindows, GlobalWindowIsTwoSidedOverTheMask) {
  const exec::Executor serial;
  const std::vector<bool> mask{true,  false, true,  true,  false,
                               false, false, false, false, true};
  const WindowSet set = build_windows(
      serial, mask, {one_window(Side::kUpper, {9, 9}), global_window(mask)});
  ASSERT_EQ(set.windows.size(), 2u);
  EXPECT_EQ(set.windows[1].side, Side::kBoth);
  EXPECT_EQ(set.windows[1].begin, 2u);
  EXPECT_EQ(set.windows[1].end, 6u);
  EXPECT_EQ(set.ids, (std::vector<std::uint64_t>{0, 2, 3, 9}));
  EXPECT_EQ(set.slots, (decltype(set.slots){3, 3, 0, 1, 2, 3}));
  // An empty set adds no window.
  const std::vector<bool> none{false, false};
  EXPECT_TRUE(
      build_windows(serial, none, {global_window(none)}).windows.empty());
}

// The parallel builder lays out a node stage's windows exactly as a serial
// hand-built reference does: the Q' owners' upper windows in owner order,
// then the B owners' mass windows, then the global window, with every owner
// whose list is empty dropped. Its per-owner counts are the upper windows'
// sizes.
TEST(StageWindows, ParallelBuildMatchesHandBuiltReference) {
  const Graph g = graph::gnm(300, 700, 5);
  std::vector<bool> alive(g.num_nodes()), in_q(g.num_nodes()),
      in_b(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    alive[v] = v % 5 != 0;
    in_q[v] = alive[v] && v % 3 != 0;
    in_b[v] = alive[v] && v % 2 == 0;
  }
  auto weight_of = [](std::uint64_t id) { return 1.0 / (1.0 + id % 7); };

  WindowSet ref;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_q[v]) ref.ids.push_back(v);
  }
  for (const std::uint64_t id : ref.ids) ref.weight.push_back(weight_of(id));
  std::uint64_t empty_owners = 0;
  auto append = [&](NodeId v, Side side) {
    const std::uint64_t begin = ref.slots.size();
    for (NodeId u : g.neighbors(v)) {
      if (!alive[u] || !in_q[u]) continue;
      const auto it = std::lower_bound(ref.ids.begin(), ref.ids.end(), u);
      ref.slots.push_back(static_cast<std::uint32_t>(it - ref.ids.begin()));
    }
    if (ref.slots.size() == begin) ++empty_owners;
    if (ref.slots.size() > begin) {
      ref.windows.push_back({begin, ref.slots.size(), side});
    }
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_q[v]) append(v, Side::kUpper);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_b[v]) append(v, Side::kMass);
  }
  const std::uint64_t global_begin = ref.slots.size();
  for (std::uint64_t s = 0; s < ref.ids.size(); ++s) {
    ref.slots.push_back(static_cast<std::uint32_t>(s));
  }
  ref.windows.push_back({global_begin, ref.slots.size(), Side::kBoth});
  ASSERT_GT(empty_owners, 0u);

  const auto q_neighbors = [&](std::uint64_t v, IdSink& sink) {
    for (NodeId u : g.neighbors(static_cast<NodeId>(v))) {
      if (alive[u] && in_q[u]) sink(u);
    }
  };
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    WindowSet set = build_windows(
        exec::Executor::with_threads(threads), in_q,
        {{g.num_nodes(), Side::kUpper,
          [&](std::uint64_t v, IdSink& sink) {
            if (in_q[v]) q_neighbors(v, sink);
          }},
         {g.num_nodes(), Side::kMass,
          [&](std::uint64_t v, IdSink& sink) {
            if (in_b[v]) q_neighbors(v, sink);
          }},
         global_window(in_q)});
    for (const std::uint64_t id : set.ids) set.weight.push_back(weight_of(id));
    EXPECT_EQ(set.ids, ref.ids);
    EXPECT_EQ(set.slots, ref.slots);
    EXPECT_EQ(set.weight, ref.weight);
    ASSERT_EQ(set.windows.size(), ref.windows.size());
    for (std::size_t w = 0; w < ref.windows.size(); ++w) {
      EXPECT_EQ(set.windows[w].begin, ref.windows[w].begin) << "window " << w;
      EXPECT_EQ(set.windows[w].end, ref.windows[w].end) << "window " << w;
      EXPECT_EQ(set.windows[w].side, ref.windows[w].side) << "window " << w;
    }
  }
}

void expect_same_stages(const std::vector<StageReport>& got,
                        const std::vector<StageReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    const StageReport& r = got[j];
    EXPECT_EQ(r.seed, want[j].seed) << "stage " << j + 1;
    EXPECT_EQ(r.trials, want[j].trials) << "stage " << j + 1;
    EXPECT_EQ(r.machines, want[j].machines) << "stage " << j + 1;
    EXPECT_EQ(r.items_before, want[j].items_before) << "stage " << j + 1;
    EXPECT_EQ(r.items_after, want[j].items_after) << "stage " << j + 1;
    EXPECT_EQ(r.max_degree_after, want[j].max_degree_after)
        << "stage " << j + 1;
    EXPECT_EQ(r.invariant_degree_ratio, want[j].invariant_degree_ratio)
        << "stage " << j + 1;
    EXPECT_EQ(r.invariant_xv_ratio, want[j].invariant_xv_ratio)
        << "stage " << j + 1;
  }
}

// The per-stage Lemma 10/11 and 17/18 measurements (and the edge side's
// X(v) re-filter) run over the pool; both sparsifiers' stage reports and
// outputs must be the same at every thread count.
TEST(Sparsifiers, StageReportsMatchAtEveryThreadCount) {
  const Graph g = graph::gnm(512, 16000, 4);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 16;
  const std::vector<bool> alive(g.num_nodes(), true);
  NodeSparsifyResult first_nodes;
  EdgeSparsifyResult first_edges;
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    auto cluster = roomy_cluster(threads);
    const auto mis_good = select_mis_good_set(cluster, params, g, alive);
    const auto nodes =
        sparsify_nodes(cluster, params, g, alive, mis_good, SparsifyConfig{});
    ASSERT_GT(nodes.stages.size(), 1u);
    EXPECT_EQ(nodes.max_degree, nodes.stages.back().max_degree_after);
    const auto matching_good =
        select_matching_good_set(cluster, params, g, alive);
    const auto edges =
        sparsify_edges(cluster, params, g, matching_good, SparsifyConfig{});
    ASSERT_GT(edges.stages.size(), 1u);
    EXPECT_EQ(edges.max_degree, edges.stages.back().max_degree_after);
    if (threads == 1) {
      first_nodes = nodes;
      first_edges = edges;
      continue;
    }
    expect_same_stages(nodes.stages, first_nodes.stages);
    EXPECT_EQ(nodes.in_Qprime, first_nodes.in_Qprime);
    expect_same_stages(edges.stages, first_edges.stages);
    EXPECT_EQ(edges.in_Estar, first_edges.in_Estar);
    EXPECT_EQ(edges.xv_star, first_edges.xv_star);
  }
}

// Escalation doubles the multiplier; that must only ever widen a window.
TEST(StageWindows, DoublingTheMultiplierNeverNarrows) {
  std::vector<double> weighted;
  for (std::uint64_t x = 0; x < 300; ++x) {
    weighted.push_back(1.0 / static_cast<double>(1 + x % 7));
  }
  for (const Side side :
       {Side::kUpper, Side::kLower, Side::kBoth, Side::kMass}) {
    for (const double q : {0.05, 0.25, 0.5, 0.9}) {
      for (std::uint64_t count = 1; count <= 300; count += 7) {
        for (double mult = kWindowSlack; mult <= 96.0; mult *= 2.0) {
          const Window narrow = bounded(weighted, count, side, q, mult);
          const Window wide = bounded(weighted, count, side, q, 2.0 * mult);
          EXPECT_LE(wide.lo, narrow.lo);
          EXPECT_GE(wide.hi, narrow.hi);
          EXPECT_LE(wide.mass_lo, narrow.mass_lo);
        }
      }
    }
  }
}

// Why find_stage_seed's "window escalation cap reached" check does not fire
// on solver inputs with at most 2^28 nodes and 2^28 edges. The last
// attempt, kMaxEscalations, bounds every window at multiplier
// M = kWindowSlack * 2^kMaxEscalations = 196608. For every rate q the
// Solver can produce (q = n^-delta, n >= 2, 8 <= 1/delta <= kMaxInvDelta)
// and every window a stage can build (a node window holds at most n ids, an
// edge window at most n(n-1)/2), the count bounds are then trivial: lo = 0
// and hi = count. A kMass window over c ids with total weight W, sum of
// squares W2 and max weight w has W <= c w and W2 >= W^2 / c, so its
// bound is 0 whenever q c <= M (sqrt(c q (1-q)) + 1), which is the count
// windows' lo = 0 condition. Every window is then good under every seed,
// so the last attempt commits its first candidate. At 2^29 ids the claim
// already fails (n = 2^15, 1/delta >= 755), so on larger inputs the cap
// stays a CheckFailure.
TEST(StageWindows, EscalationCapBoundsAreTrivialOnSolverInputs) {
  const double cap = kWindowSlack * std::ldexp(1.0, kMaxEscalations);
  constexpr std::uint64_t kMaxIds = std::uint64_t{1} << 28;
  const WindowSet empty;
  for (std::uint32_t inv_delta = 8; inv_delta <= Solver::kMaxInvDelta;
       ++inv_delta) {
    for (std::uint32_t lg = 1; lg <= 32; ++lg) {
      for (const std::uint64_t n :
           {std::uint64_t{1} << lg, std::uint64_t{3} << (lg - 1)}) {
        Params params;
        params.n = n;
        params.inv_delta = inv_delta;
        const double q = params.sample_probability();
        const std::uint64_t count =
            std::min(kMaxIds, std::max(n, n * (n - 1) / 2));
        for (const Side side : {Side::kUpper, Side::kLower, Side::kBoth}) {
          Window w{0, count, side};
          set_bounds(w, empty, q, cap);
          ASSERT_EQ(w.lo, 0u) << "n=" << n << " 1/delta=" << inv_delta;
          ASSERT_EQ(w.hi, count) << "n=" << n << " 1/delta=" << inv_delta;
        }
      }
    }
  }
  // The mass side on a real window of unequal weights, at the extreme rates.
  std::vector<double> weighted;
  for (std::uint64_t x = 0; x < 4096; ++x) {
    weighted.push_back(1.0 / static_cast<double>(1 + x % 97));
  }
  for (const double q : {0.01, 0.5, 0.999}) {
    EXPECT_EQ(bounded(weighted, 4096, Side::kMass, q, cap).mass_lo, 0.0);
  }
}

// One id pushed 1000 times keeps 0 or 1000 of its copies, while the
// window at q = 1/4 is 250 ± mult * (sqrt(187.5) + 1) = 250 ± mult * 14.69:
// no seed is good until the lower bound reaches 0, which first happens at
// multiplier 24. The search must escalate 3 -> 6 -> 12 -> 24, spending the
// full kTrialsPerWindow at each width that misses, and commit a seed that
// drops id 7.
TEST(StageSeedSearch, EscalatesUntilTheWindowsAreSatisfiable) {
  auto cluster = roomy_cluster();
  const StageHash stage_hash(64, 0.25, 4);
  std::vector<bool> mask(64, false);
  mask[7] = true;
  WindowSet set =
      build_windows(cluster.executor(), mask,
                    {one_window(Side::kBoth, std::vector<std::uint64_t>(1000, 7))});
  StageReport report = find_stage_seed(cluster, stage_hash, 1, set, "test");
  EXPECT_EQ(report.window_multiplier, 24.0);
  EXPECT_GT(report.trials, 3 * kTrialsPerWindow);
  EXPECT_LE(report.trials, 4 * kTrialsPerWindow);
  EXPECT_EQ(report.machines, 1u);
  EXPECT_EQ(set.windows[0].lo, 0u);
  const auto fn = stage_hash.family.at(report.seed);
  EXPECT_GE(fn.raw(7), stage_hash.cutoff);

  // The committed hash drops id 7, so a sample of it alone would empty:
  // the guard leaves the mask untouched.
  std::vector<bool> only7(64, false);
  only7[7] = true;
  const std::vector<bool> before = only7;
  EXPECT_FALSE(apply_stage_hash(stage_hash, only7, report, "test"));
  EXPECT_EQ(only7, before);
  EXPECT_EQ(report.items_before, 1u);
  EXPECT_EQ(report.items_after, 0u);

  // On the full domain it keeps exactly the ids hashed below the cutoff.
  std::vector<bool> all(64, true);
  ASSERT_TRUE(apply_stage_hash(stage_hash, all, report, "test"));
  std::uint64_t kept = 0;
  for (std::uint64_t x = 0; x < 64; ++x) {
    EXPECT_EQ(all[x], fn.raw(x) < stage_hash.cutoff) << "id " << x;
    kept += all[x];
  }
  EXPECT_EQ(report.items_before, 64u);
  EXPECT_EQ(report.items_after, kept);
}

// A kMass window weighs each entry by its id's weight, not by the entry's
// position: its 500 entries are the unit-weight ids 500..999, so M = 500 and
// at q = 1/4 the bound at x3 is 125 - 3 * (sqrt(93.75) + 1) = 92.95, which
// the first seeds meet (the kept count is 125 ± 9.7). Reading the weights
// of positions 0..499, which are 0, would zero the bound or the mass.
TEST(StageSeedSearch, MassWindowsWeighEachIdThroughItsSlot) {
  auto cluster = roomy_cluster();
  const StageHash stage_hash(1000, 0.25, 4);
  std::vector<std::uint64_t> upper_half;
  for (std::uint64_t x = 500; x < 1000; ++x) upper_half.push_back(x);
  WindowSet set = build_windows(cluster.executor(),
                                std::vector<bool>(1000, true),
                                {one_window(Side::kMass, upper_half)});
  for (std::uint64_t x = 0; x < 1000; ++x) {
    set.weight.push_back(x < 500 ? 0.0 : 1.0);
  }
  const StageReport report =
      find_stage_seed(cluster, stage_hash, 1, set, "test");
  EXPECT_EQ(report.window_multiplier, kWindowSlack);
  EXPECT_NEAR(set.windows[0].mass_lo, 92.952625, 1e-6);
  const auto fn = stage_hash.family.at(report.seed);
  double mass = 0.0;
  for (std::uint64_t x = 500; x < 1000; ++x) {
    if (fn.raw(x) < stage_hash.cutoff) mass += 1.0;
  }
  EXPECT_GE(mass, set.windows[0].mass_lo);
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
