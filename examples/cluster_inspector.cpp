// Scenario: inspect the MPC cost model itself.
//
// Runs the deterministic MIS pipeline at several (n, eps) points and prints
// the round budget broken down by phase label, the peak per-machine load
// against the S = n^eps budget, and the total communication — the three
// quantities Theorems 1/7/14 bound. Useful to see where the rounds go
// (good-node selection vs sparsification vs selection vs gathers).
//
//   ./cluster_inspector [--n=4096] [--m=24576]
#include <cstdio>

#include "graph/generators.hpp"
#include "matching/det_matching.hpp"
#include "mis/det_mis.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  const dmpc::ArgParser args(argc, argv);
  const auto n = static_cast<dmpc::graph::NodeId>(args.get_int("n", 4096));
  const auto m = static_cast<dmpc::graph::EdgeId>(args.get_int("m", 24576));
  const auto g = dmpc::graph::gnm(n, m, 5);

  std::printf("== MPC cost inspector: G(n=%u, m=%llu) ==\n", n,
              static_cast<unsigned long long>(m));
  for (const double eps : {0.3, 0.5, 0.7}) {
    dmpc::mis::DetMisConfig config;
    config.eps = eps;
    const auto cc = dmpc::matching::cluster_config_for(config, g.num_nodes(),
                                                       g.num_edges());
    const auto result = dmpc::mis::det_mis(g, config);
    std::printf("\n-- eps=%.1f: S=%llu words, M=%llu machines --\n", eps,
                static_cast<unsigned long long>(cc.machine_space),
                static_cast<unsigned long long>(cc.num_machines));
    std::printf("iterations=%llu  rounds=%llu  peak load=%llu/%llu  "
                "comm=%llu words\n",
                static_cast<unsigned long long>(result.iterations),
                static_cast<unsigned long long>(result.metrics.rounds()),
                static_cast<unsigned long long>(
                    result.metrics.peak_machine_load()),
                static_cast<unsigned long long>(cc.machine_space),
                static_cast<unsigned long long>(
                    result.metrics.total_communication()));
    std::printf("rounds by phase:\n");
    for (const auto& [label, cost] : result.metrics.by_label()) {
      if (cost.rounds == 0) continue;
      std::printf("  %-28s %8llu\n", label.c_str(),
                  static_cast<unsigned long long>(cost.rounds));
    }
  }
  return 0;
}
