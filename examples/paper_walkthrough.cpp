// Paper walkthrough: one iteration of the §3 deterministic matching
// pipeline on a small graph, printing every intermediate artifact the paper
// defines — the degree classes C_i, the good set B and E_0 (Corollary 8),
// the sparsification stages with their committed seeds and window
// multipliers (§3.2), and the Lemma-13 selection. Read it next to the paper.
//
//   ./paper_walkthrough [--n=512] [--m=8192]
#include <cstdio>

#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "matching/det_matching.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/degree_classes.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/good_nodes.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  const dmpc::ArgParser args(argc, argv);
  const auto n = static_cast<dmpc::graph::NodeId>(args.get_int("n", 512));
  const auto m = static_cast<dmpc::graph::EdgeId>(args.get_int("m", 8192));
  const auto g = dmpc::graph::gnm(n, m, 7);

  dmpc::matching::DetMatchingConfig config;
  const auto params = dmpc::matching::params_for(config, g.num_nodes());
  const auto cluster_config =
      dmpc::matching::cluster_config_for(config, g.num_nodes(), g.num_edges());
  dmpc::mpc::Cluster cluster(cluster_config);

  std::printf("== one §3 iteration on G(n=%u, m=%llu) ==\n", n,
              (unsigned long long)g.num_edges());
  std::printf("model: S = %llu words/machine, M = %llu machines, "
              "delta = 1/%u (n^delta = %.2f)\n\n",
              (unsigned long long)cluster_config.machine_space,
              (unsigned long long)cluster_config.num_machines,
              params.inv_delta, params.pow_nd(1.0));

  // --- Degree classes C_i (§3). ---
  std::vector<bool> alive(g.num_nodes(), true);
  const auto degrees =
      dmpc::graph::alive_degrees(g, alive, dmpc::exec::Executor::serial());
  const auto classes = dmpc::sparsify::classify(params, degrees);
  std::printf("degree classes C_i = [n^{(i-1)d}, n^{id}) and their degree "
              "mass:\n");
  for (std::uint32_t i = 1; i <= params.inv_delta; ++i) {
    if (classes.degree_mass[i] == 0) continue;
    std::printf("  C_%-2u [%6.1f, %6.1f): mass %llu\n", i,
                params.class_lower(i),
                params.class_lower(i) * params.pow_nd(1.0),
                (unsigned long long)classes.degree_mass[i]);
  }

  // --- Good nodes (Lemma 3 / Corollary 8). ---
  const auto good =
      dmpc::sparsify::select_matching_good_set(cluster, params, g, alive);
  std::uint64_t b_count = 0, e0_count = 0;
  for (bool b : good.in_B) b_count += b;
  for (bool b : good.in_E0) e0_count += b;
  std::printf("\nCorollary 8 picks class i = %u:\n", good.cls);
  std::printf("  |B| = %llu nodes, sum_{v in B} d(v) = %llu "
              "(bound: (delta/2)|E| = %.0f)\n",
              (unsigned long long)b_count,
              (unsigned long long)good.b_degree_mass,
              params.delta() / 2 * static_cast<double>(g.num_edges()));
  std::printf("  |E_0| = %llu edges (union of the X(v) lists)\n",
              (unsigned long long)e0_count);

  // --- Sparsification stages (§3.2). ---
  const auto sparse = dmpc::sparsify::sparsify_edges(cluster, params, g, good,
                                                     config.sparsify);
  std::printf("\n§3.2 sparsification to E* (planned stages: max(0, i-4) = "
              "%u):\n",
              params.stages_for_class(good.cls));
  for (const auto& s : sparse.stages) {
    std::printf("  stage %u: |E| %llu -> %llu, max degree %u, committed "
                "seed %llu after %llu trials (window x%.1f)\n",
                s.stage, (unsigned long long)s.items_before,
                (unsigned long long)s.items_after, s.max_degree_after,
                (unsigned long long)s.seed, (unsigned long long)s.trials,
                s.window_multiplier);
  }
  std::printf("  final max degree in E*: %u (cap 2 n^{4 delta} = %llu)\n",
              sparse.max_degree, (unsigned long long)params.degree_cap());

  // --- The full run for comparison. ---
  const auto result = dmpc::matching::det_maximal_matching(g, config);
  std::printf("\nfull run: %llu iterations, %zu matched edges, %llu MPC "
              "rounds, peak load %llu/%llu words\n",
              (unsigned long long)result.iterations, result.matching.size(),
              (unsigned long long)result.metrics.rounds(),
              (unsigned long long)result.metrics.peak_machine_load(),
              (unsigned long long)cluster_config.machine_space);
  std::printf("per-iteration progress (Lemma 13 floor: delta|E|/536):\n");
  for (const auto& r : result.reports) {
    std::printf("  iter %llu: class %u, |E| %llu -> %llu (-%4.1f%%), "
                "%llu pairs, E* max deg %u\n",
                (unsigned long long)r.iteration, r.cls,
                (unsigned long long)r.edges_before,
                (unsigned long long)r.edges_after,
                100.0 * r.progress_fraction,
                (unsigned long long)r.committed, r.sparse_max_degree);
  }
  return 0;
}
