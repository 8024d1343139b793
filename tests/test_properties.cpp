// Property-based suites: parameterized sweeps over (generator, size, seed)
// asserting the invariants every run must satisfy — validity, maximality,
// determinism, per-iteration progress, and space bounds.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "matching/det_matching.hpp"
#include "mis/det_mis.hpp"

namespace dmpc {
namespace {

using graph::Graph;

struct Workload {
  std::string name;
  Graph (*make)(std::uint32_t n, std::uint64_t seed);
};

Graph make_gnm(std::uint32_t n, std::uint64_t seed) {
  return graph::gnm(n, static_cast<graph::EdgeId>(n) * 6, seed);
}
Graph make_power_law(std::uint32_t n, std::uint64_t seed) {
  return graph::power_law(n, static_cast<graph::EdgeId>(n) * 4, 2.5, seed);
}
Graph make_regular(std::uint32_t n, std::uint64_t seed) {
  return graph::random_regular(n, 8, seed);
}
Graph make_bipartite(std::uint32_t n, std::uint64_t seed) {
  return graph::random_bipartite(n / 2, n - n / 2,
                                 static_cast<graph::EdgeId>(n) * 4, seed);
}
Graph make_tree(std::uint32_t n, std::uint64_t seed) {
  return graph::random_tree(n, seed);
}

using Param = std::tuple<int /*workload*/, std::uint32_t /*n*/,
                         std::uint64_t /*seed*/>;

const Workload kWorkloads[] = {
    {"gnm", make_gnm},         {"power_law", make_power_law},
    {"regular", make_regular}, {"bipartite", make_bipartite},
    {"tree", make_tree},
};

class SolverProperty : public ::testing::TestWithParam<Param> {
 protected:
  Graph make_graph() const {
    const auto& [w, n, seed] = GetParam();
    return kWorkloads[w].make(n, seed);
  }
};

TEST_P(SolverProperty, MisValidMaximalDeterministic) {
  const Graph g = make_graph();
  const auto a = Solver().mis(g);
  ASSERT_TRUE(graph::is_maximal_independent_set(g, a.in_set));
  const auto b = Solver().mis(g);
  EXPECT_EQ(a.in_set, b.in_set);
}

TEST_P(SolverProperty, MatchingValidMaximalDeterministic) {
  const Graph g = make_graph();
  const auto a = Solver().maximal_matching(g);
  ASSERT_TRUE(graph::is_maximal_matching(g, a.matching));
  const auto b = Solver().maximal_matching(g);
  EXPECT_EQ(a.matching, b.matching);
}

TEST_P(SolverProperty, SparsificationPipelineProgressEveryIteration) {
  const Graph g = make_graph();
  if (g.num_edges() == 0) GTEST_SKIP();
  const auto result = mis::det_mis(g, {});
  for (const auto& report : result.reports) {
    EXPECT_LT(report.edges_after, report.edges_before)
        << "iteration " << report.iteration << " made no progress";
  }
}

TEST_P(SolverProperty, MatchingPipelineSpaceBound) {
  const Graph g = make_graph();
  if (g.num_edges() == 0) GTEST_SKIP();
  matching::DetMatchingConfig config;
  const auto cc =
      matching::cluster_config_for(config, g.num_nodes(), g.num_edges());
  const auto result = matching::det_maximal_matching(g, config);
  EXPECT_LE(result.metrics.peak_machine_load(), cc.machine_space);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto& [w, n, seed] = info.param;
  return kWorkloads[w].name + "_n" + std::to_string(n) + "_s" +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(64u, 160u, 320u),
                       ::testing::Values(1ULL, 2ULL)),
    param_name);

// Degree-class boundary cases exercised explicitly.
class DegreeEdgeCases : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DegreeEdgeCases, StarOfEveryScaleSolves) {
  const auto leaves = GetParam();
  const Graph g = graph::star(leaves);
  const auto mis = Solver().mis(g);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, mis.in_set));
  // Either the hub alone or all leaves: both are maximal; solver must pick
  // one of the two.
  const auto members =
      std::count(mis.in_set.begin(), mis.in_set.end(), true);
  EXPECT_TRUE(members == 1 || members == static_cast<long>(leaves));
  const auto mm = Solver().maximal_matching(g);
  EXPECT_EQ(mm.matching.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Stars, DegreeEdgeCases,
                         ::testing::Values(1u, 2u, 7u, 33u, 150u));

// Space-exponent sweep: the fully-scalable claim — the pipelines must work
// for every constant eps, with the simulator enforcing S = O(n^eps).
class EpsSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EpsSweep, BothPipelinesValidAtEveryExponent) {
  const double eps = static_cast<double>(std::get<0>(GetParam())) / 10.0;
  const int family = std::get<1>(GetParam());
  const Graph g = kWorkloads[family].make(192, 3);
  SolveOptions options;
  options.eps = eps;
  const auto mis = Solver(options).mis(g);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, mis.in_set));
  const auto mm = Solver(options).maximal_matching(g);
  EXPECT_TRUE(graph::is_maximal_matching(g, mm.matching));
}

std::string eps_name(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  return "eps0" + std::to_string(std::get<0>(info.param)) + "_" +
         kWorkloads[std::get<1>(info.param)].name;
}

INSTANTIATE_TEST_SUITE_P(Exponents, EpsSweep,
                         ::testing::Combine(::testing::Values(3, 4, 5, 6, 7),
                                            ::testing::Values(0, 1, 2, 3, 4)),
                         eps_name);

// Selection-mode sweep: threshold search and exact conditional
// expectations must both produce valid, deterministic output.
class SelectionModeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SelectionModeSweep, MatchingAndMisValid) {
  const int family = GetParam();
  const Graph g = kWorkloads[family].make(72, 4);
  matching::DetMatchingConfig mm_config;
  mm_config.selection_mode = derand::SelectionMode::kConditionalExpectation;
  const auto mm = matching::det_maximal_matching(g, mm_config);
  EXPECT_TRUE(graph::is_maximal_matching(g, mm.matching));
  mis::DetMisConfig mis_config;
  mis_config.selection_mode = derand::SelectionMode::kConditionalExpectation;
  const auto m = mis::det_mis(g, mis_config);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, m.in_set));
}

INSTANTIATE_TEST_SUITE_P(CeModes, SelectionModeSweep,
                         ::testing::Values(0, 1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kWorkloads[info.param].name;
                         });

}  // namespace
}  // namespace dmpc
