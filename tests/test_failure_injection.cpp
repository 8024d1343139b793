// Failure-injection tests: the library must *fail loudly* when the model's
// premises are violated — space limits, malformed inputs, impossible
// configurations — rather than silently degrade.
#include <gtest/gtest.h>

#include <string>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "lowdeg/lowdeg_solver.hpp"
#include "matching/det_matching.hpp"
#include "mis/det_mis.hpp"
#include "mpc/cluster.hpp"
#include "mpc/lowlevel.hpp"
#include "support/check.hpp"

namespace dmpc {
namespace {

using graph::Graph;

/// Provision a pinned-geometry cluster through the Solver facade (hand-built
/// mpc::ClusterConfig at call sites is deprecated).
mpc::Cluster pinned_cluster(std::uint64_t machine_space,
                            std::uint64_t num_machines,
                            bool enforce_space = true) {
  SolveOptions options;
  options.cluster.machine_space = machine_space;
  options.cluster.num_machines = num_machines;
  options.cluster.enforce_space = enforce_space;
  return Solver(options).cluster(/*n=*/2, /*m=*/0);
}

TEST(FailureInjection, UndersizedClusterRejectsMatchingPipeline) {
  // A cluster provisioned for a toy graph cannot run a bigger one: the
  // 2-hop gather (or a block layout) must trip the space check — and the
  // failure message must name the machine, the measured load, and the limit.
  const Graph big = graph::gnm(2048, 16384, 1);
  auto cluster = pinned_cluster(/*machine_space=*/64, /*num_machines=*/4096);
  matching::DetMatchingConfig config;
  try {
    matching::det_maximal_matching(cluster, big, config);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("machine="), std::string::npos) << message;
    EXPECT_NE(message.find("measured="), std::string::npos) << message;
    EXPECT_NE(message.find("limit=64"), std::string::npos) << message;
  }
}

TEST(FailureInjection, UndersizedClusterRejectsMisPipeline) {
  // The MIS pipeline's per-machine needs are modest (N_v windows are tiny),
  // so it takes a severely undersized cluster to trip: 16-word machines
  // cannot even hold the blocked edge layout.
  const Graph big = graph::gnm(2048, 16384, 2);
  auto cluster = pinned_cluster(/*machine_space=*/16, /*num_machines=*/1024);
  mis::DetMisConfig config;
  try {
    mis::det_mis(cluster, big, config);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("measured="), std::string::npos) << message;
    EXPECT_NE(message.find("limit=16"), std::string::npos) << message;
  }
}

TEST(FailureInjection, LowDegPipelineRejectsHighDegreeInput) {
  // Forcing the low-degree path on a hub graph must hit the 2-hop space
  // check rather than produce wrong output.
  const Graph hub = graph::star(4000);
  auto cluster = pinned_cluster(/*machine_space=*/256, /*num_machines=*/4096);
  EXPECT_THROW(lowdeg::lowdeg_mis(cluster, hub),
               CheckFailure);
}

TEST(FailureInjection, AutoDispatchAvoidsTheTrap) {
  // The same hub graph through the façade dispatches to the general
  // pipeline and succeeds.
  const Graph hub = graph::star(4000);
  EXPECT_EQ(Solver().mis(hub).report.algorithm_used, "sparsification");
}

TEST(FailureInjection, SpaceDisabledAblationRuns) {
  // With enforcement off, the undersized run completes (that is what the
  // E11 ablation measures) — the peak load records the violation instead.
  const Graph big = graph::gnm(1024, 8192, 3);
  auto cluster = pinned_cluster(/*machine_space=*/64, /*num_machines=*/4096,
                                /*enforce_space=*/false);
  matching::DetMatchingConfig config;
  const auto result = matching::det_maximal_matching(cluster, big, config);
  EXPECT_FALSE(result.matching.empty());
  EXPECT_GT(cluster.metrics().peak_machine_load(), 64u);
}

TEST(FailureInjection, LowLevelSortRejectsOversubscription) {
  auto cluster = pinned_cluster(/*machine_space=*/32, /*num_machines=*/4096);
  // 5000 tagged keys need far more than S/2 machines at S = 32.
  std::vector<mpc::Word> items(5000, 1);
  EXPECT_THROW(mpc::lowlevel::sort(cluster, items), CheckFailure);
}

TEST(FailureInjection, BadConfigsRejected) {
  EXPECT_THROW(mpc::Cluster(mpc::ClusterConfig{.machine_space = 1}),
               CheckFailure);
  EXPECT_THROW(mpc::ClusterConfig::for_input(100, 0.0, 1000), CheckFailure);
  EXPECT_THROW(mpc::ClusterConfig::for_input(100, 1.5, 1000), CheckFailure);
}

TEST(FailureInjection, IterationCapTrips) {
  const Graph g = graph::gnm(256, 2048, 4);
  matching::DetMatchingConfig config;
  config.max_iterations = 1;  // cannot finish in one iteration
  EXPECT_THROW(matching::det_maximal_matching(g, config), CheckFailure);
}

}  // namespace
}  // namespace dmpc
