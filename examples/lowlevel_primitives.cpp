// Scenario: the Lemma-4 toolbox as a user-facing library.
//
// A log-analytics shard job: per-shard event counts are prefix-summed to
// assign global output offsets, and event keys are sorted — both as *real*
// message-passing MPC computations where every word moves through the
// router and every machine obeys its S-word budget. Prints the per-phase
// round bill so the tree structure is visible.
//
//   ./lowlevel_primitives [--events=20000] [--space=512]
#include <algorithm>
#include <cstdio>

#include "mpc/cluster.hpp"
#include "mpc/lowlevel.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  const dmpc::ArgParser args(argc, argv);
  const auto events = static_cast<std::size_t>(args.get_int("events", 20000));
  const auto space = static_cast<std::uint64_t>(args.get_int("space", 512));

  dmpc::mpc::ClusterConfig config;
  config.machine_space = space;
  config.num_machines = 1 << 16;

  dmpc::Rng rng(11);
  std::printf("== Lemma-4 primitives, message-passing level ==\n");
  std::printf("S = %llu words/machine\n\n", (unsigned long long)space);

  // --- Prefix sums: shard sizes -> global output offsets. ---
  {
    std::vector<dmpc::mpc::Word> shard_sizes(events / 100 + 1);
    for (auto& s : shard_sizes) s = rng.next_below(200);
    dmpc::mpc::Cluster cluster(config);
    const auto offsets = dmpc::mpc::lowlevel::prefix_sum(cluster, shard_sizes);
    std::printf("prefix sums over %zu shard sizes:\n", shard_sizes.size());
    std::printf("  machines=%llu rounds=%llu peak=%llu comm=%llu words\n",
                (unsigned long long)cluster.low_level_machines(),
                (unsigned long long)cluster.metrics().rounds(),
                (unsigned long long)cluster.metrics().peak_machine_load(),
                (unsigned long long)cluster.metrics().total_communication());
    // Spot check.
    dmpc::mpc::Word acc = 0;
    bool ok = true;
    for (std::size_t i = 0; i < shard_sizes.size(); ++i) {
      ok = ok && offsets[i] == acc;
      acc += shard_sizes[i];
    }
    std::printf("  verified against sequential scan: %s\n\n",
                ok ? "yes" : "NO (bug!)");
  }

  // --- Distributed sample sort: event keys. ---
  {
    // Keys within the sort's single-level gather capacity: n <= ~3 S^2/64.
    const auto capacity =
        static_cast<std::size_t>(3 * space * space / 64);
    const std::size_t count = std::min(events, capacity);
    if (count < events) {
      std::printf("(clamping sort to %zu keys: single-level splitter "
                  "gather needs n <= 3S^2/64)\n",
                  count);
    }
    std::vector<dmpc::mpc::Word> keys(count);
    for (auto& k : keys) k = rng.next_below(1u << 30);
    dmpc::mpc::Cluster cluster(config);
    const auto sorted = dmpc::mpc::lowlevel::sort(cluster, keys);
    std::printf("sample sort over %zu keys:\n", count);
    std::printf("  machines=%llu rounds=%llu peak=%llu/%llu words\n",
                (unsigned long long)cluster.low_level_machines(),
                (unsigned long long)cluster.metrics().rounds(),
                (unsigned long long)cluster.metrics().peak_machine_load(),
                (unsigned long long)space);
    std::printf("  sorted: %s\n", std::is_sorted(sorted.begin(), sorted.end())
                                      ? "yes"
                                      : "NO (bug!)");
    std::printf("  rounds by phase:\n");
    for (const auto& [label, cost] : cluster.metrics().by_label()) {
      if (cost.rounds == 0) continue;
      std::printf("    %-28s %6llu\n", label.c_str(),
                  (unsigned long long)cost.rounds);
    }
  }
  return 0;
}
