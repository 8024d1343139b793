// Unit tests for the MPC simulator: model semantics, space enforcement,
// primitives, and distribution schemes.
#include <gtest/gtest.h>

#include <numeric>

#include "mpc/cluster.hpp"
#include "mpc/distribution.hpp"
#include "mpc/primitives.hpp"
#include "support/check.hpp"

namespace dmpc::mpc {
namespace {

ClusterConfig small_config(std::uint64_t space, std::uint64_t machines) {
  ClusterConfig config;
  config.machine_space = space;
  config.num_machines = machines;
  return config;
}

TEST(ClusterConfig, ForInputDerivesSpaceAndMachines) {
  const auto config = ClusterConfig::for_input(10000, 0.5, 50000);
  EXPECT_EQ(config.machine_space, 100u);  // 10000^0.5
  EXPECT_EQ(config.num_machines, 501u);
  const auto floored = ClusterConfig::for_input(4, 0.5, 100, 16);
  EXPECT_EQ(floored.machine_space, 16u);  // min_space floor
}

TEST(Cluster, TreeDepthScaling) {
  Cluster c(small_config(16, 10));
  EXPECT_EQ(c.tree_depth(1), 1u);
  EXPECT_EQ(c.tree_depth(16), 1u);
  EXPECT_EQ(c.tree_depth(17), 2u);
  EXPECT_EQ(c.tree_depth(256), 2u);
  EXPECT_EQ(c.tree_depth(257), 3u);
}

TEST(Cluster, SpaceCheckEnforced) {
  Cluster c(small_config(8, 4));
  EXPECT_NO_THROW(c.check_load(8, "fits"));
  EXPECT_THROW(c.check_load(9, "overflow"), CheckFailure);
  EXPECT_EQ(c.metrics().peak_machine_load(), 9u);
}

TEST(Cluster, SpaceCheckDisabledForAblation) {
  auto config = small_config(8, 4);
  config.enforce_space = false;
  Cluster c(config);
  EXPECT_NO_THROW(c.check_load(1000, "ablation"));
  EXPECT_EQ(c.metrics().peak_machine_load(), 1000u);
}

TEST(Cluster, LowLevelStepRoutesMessages) {
  Cluster c(small_config(16, 3));
  c.load({{1, 2}, {3}, {}});
  c.step([](MachineContext& ctx) {
    if (ctx.id() == 0) {
      // Send my words to machine 2 and clear.
      ctx.send(2, {ctx.local().begin(), ctx.local().end()});
      ctx.local().clear();
    }
  });
  EXPECT_TRUE(c.local(0).empty());
  ASSERT_EQ(c.local(2).size(), 2u);
  EXPECT_EQ(c.local(2)[0], 1u);
  EXPECT_EQ(c.local(2)[1], 2u);
  EXPECT_EQ(c.metrics().rounds(), 1u);
  EXPECT_EQ(c.metrics().total_communication(), 2u);
}

TEST(Cluster, LowLevelStepEnforcesReceiveCapacity) {
  Cluster c(small_config(4, 3));
  c.load({{}, {}, {}});
  EXPECT_THROW(c.step([](MachineContext& ctx) {
    if (ctx.id() != 2) ctx.send(2, {1, 2, 3});  // 6 words > S=4 at machine 2
  }),
               CheckFailure);
}

TEST(Cluster, LowLevelStepRejectsBadDestination) {
  Cluster c(small_config(8, 2));
  c.load({{}, {}});
  EXPECT_THROW(
      c.step([](MachineContext& ctx) { ctx.send(5, {1}); }),
      CheckFailure);
}

TEST(Primitives, BlockedLayoutCheck) {
  Cluster c(small_config(10, 4));
  // 20 records arity 1 -> 5 per machine: fits.
  EXPECT_NO_THROW(check_blocked_layout(c, 20, 1, "ok"));
  // 20 records arity 3 -> 15 words per machine: overflows.
  EXPECT_THROW(check_blocked_layout(c, 20, 3, "fail"), CheckFailure);
}

TEST(Primitives, SortCorrectAndCharged) {
  Cluster c(small_config(64, 8));
  std::vector<std::uint64_t> v{5, 3, 9, 1, 1, 8};
  dsort(c, v, std::less<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_GT(c.metrics().rounds(), 0u);
  EXPECT_GT(c.metrics().total_communication(), 0u);
}

TEST(Primitives, PrefixSumExclusive) {
  Cluster c(small_config(64, 8));
  std::vector<std::uint64_t> v{3, 1, 4, 1, 5};
  const auto out = prefix_sum_exclusive(c, v);
  const std::vector<std::uint64_t> expect{0, 3, 4, 8, 9};
  EXPECT_EQ(out, expect);
}

TEST(Primitives, Reductions) {
  Cluster c(small_config(64, 8));
  std::vector<std::uint64_t> v{3, 1, 4, 1, 5};
  EXPECT_EQ(reduce_sum(c, v), 14u);
  EXPECT_EQ(reduce_max(c, v), 5u);
  std::vector<double> d{0.5, 1.5, 2.0};
  EXPECT_DOUBLE_EQ(reduce_sum_double(c, d), 4.0);
}

TEST(Primitives, GroupSum) {
  Cluster c(small_config(64, 8));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs{
      {2, 5}, {1, 1}, {2, 7}, {3, 2}, {1, 3}};
  const auto out = group_sum(c, std::move(pairs));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (std::pair<std::uint64_t, std::uint64_t>{1, 4}));
  EXPECT_EQ(out[1], (std::pair<std::uint64_t, std::uint64_t>{2, 12}));
  EXPECT_EQ(out[2], (std::pair<std::uint64_t, std::uint64_t>{3, 2}));
}

TEST(Primitives, RoundChargesScaleWithTreeDepth) {
  Cluster small(small_config(4, 1024));
  Cluster big(small_config(1024, 1024));
  std::vector<std::uint64_t> v(1000, 1);
  reduce_sum(small, v);
  reduce_sum(big, v);
  // Fan-in-4 tree is deeper than fan-in-1024 tree.
  EXPECT_GT(small.metrics().rounds(), big.metrics().rounds());
}

// The §3.2 / §4.2 group distribution: a group machine of group_size items
// at arity words each must fit in S; the items move in one sort, charged
// with their words to the label's ledger row.
TEST(Distribution, GroupDistributionChecksSpaceAndChargesOneSort) {
  Cluster tight(small_config(6, 16));
  EXPECT_THROW(charge_group_distribution(tight, 20, /*group_size=*/4,
                                         /*arity=*/2, "s/distribute"),
               CheckFailure);
  Cluster c(small_config(8, 16));
  charge_group_distribution(c, 20, /*group_size=*/4, /*arity=*/2,
                            "s/distribute");
  charge_group_distribution(c, 50, /*group_size=*/4, /*arity=*/2,
                            "s/distribute");
  const std::uint64_t rounds = sort_round_cost(c, 20) + sort_round_cost(c, 50);
  EXPECT_GT(rounds, 0u);
  const LabelCost& row = c.metrics().by_label().at("s/distribute");
  EXPECT_EQ(row.rounds, rounds);
  EXPECT_EQ(row.communication, 2u * (20 + 50));
  EXPECT_EQ(row.peak_load, 8u);
  EXPECT_EQ(c.metrics().rounds(), rounds);
}

TEST(Distribution, TwoHopGatherChecksEachCenter) {
  Cluster c(small_config(32, 16));
  std::vector<std::uint64_t> words{10, 40, 5};
  std::vector<bool> centers{true, false, true};
  EXPECT_NO_THROW(charge_two_hop_gather(c, words, centers, "t"));
  centers[1] = true;  // 40 > 32 now checked
  EXPECT_THROW(charge_two_hop_gather(c, words, centers, "t"), CheckFailure);
}

}  // namespace
}  // namespace dmpc::mpc
