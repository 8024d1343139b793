// Deterministic MIS in O(log n) MPC rounds (§4, Theorem 14).
//
// Per iteration (Algorithm 3):
//   1. isolated alive nodes join the MIS and leave the graph;
//   2. select good nodes B and class set Q_0 (Corollary 16);
//   3. sparsify Q_0 to Q' so degrees inside Q' are O(n^{4 delta})
//      (node_sparsifier.hpp, Lemmas 17/18);
//   4. every B-node's machine gathers N_v (up to n^{4 delta} Q'-neighbors)
//      plus their Q'-neighborhoods (space O(n^{8 delta}), Lemma 20);
//   5. derandomize the Lemma-21 candidate independent set: pairwise hash h
//      gives each Q'-node priority z_v; I_h = local minima within Q';
//      objective q(h) = sum of d(v) over B-nodes with N_v ∩ I_h nonempty,
//      E[q] >= 0.01 delta sum_{v in B} d(v) >= delta^2 |E| / 200;
//   6. commit a seed meeting the threshold, add I_h to the MIS, delete
//      I_h ∪ N(I_h) — removing >= delta^2 |E| / 400 edges.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "matching/det_matching.hpp"  // DetMatchingConfig shape is shared
#include "mpc/cluster.hpp"
#include "mpc/metrics.hpp"
#include "sparsify/params.hpp"

namespace dmpc::mis {

struct DetMisConfig {
  double eps = 0.5;
  std::uint32_t inv_delta = 0;  ///< 0 = paper default 8/eps.
  double space_headroom = 8.0;
  double total_space_factor = 8.0;
  sparsify::SparsifyConfig sparsify;
  /// Lemma 21 constant: q >= threshold_factor * delta * sum_{v in B} d(v).
  double threshold_factor = 0.01;
  std::uint64_t selection_batch = 16;
  std::uint64_t trials_per_threshold = 256;
  std::uint64_t max_iterations = 100000;
  matching::SelectionMode selection_mode =
      matching::SelectionMode::kThresholdSearch;
  /// Host wiring (threads, overrides, fault plan, observers) of the cluster
  /// the cluster-creating overload builds. The cluster-taking overload reads
  /// none of it: whoever built that cluster set it up.
  mpc::ClusterSetup setup;
};

struct MisIterationReport {
  std::uint64_t iteration = 0;
  std::uint32_t cls = 0;
  graph::EdgeId edges_before = 0;
  graph::EdgeId edges_after = 0;
  std::uint64_t independent_added = 0;  ///< |I_h| this iteration.
  std::uint64_t isolated_added = 0;
  double progress_fraction = 0.0;
  std::uint64_t selection_trials = 0;
  std::uint64_t sparsify_stages = 0;
  std::uint32_t qprime_max_degree = 0;
  /// Worst measured §4.2 invariant ratios across this iteration's stages
  /// (see matching::IterationReport for the conventions).
  double invariant_degree_ratio = 0.0;
  double invariant_xv_ratio = 2.0;
  double window_multiplier = 0.0;
};

struct DetMisResult {
  std::vector<bool> in_set;
  std::uint64_t iterations = 0;
  std::vector<MisIterationReport> reports;
  mpc::Metrics metrics;
  mpc::RecoveryStats recovery;  ///< All-zero for a fault-free run.
};

DetMisResult det_mis(const graph::Graph& g, const DetMisConfig& config);
DetMisResult det_mis(mpc::Cluster& cluster, const graph::Graph& g,
                     const DetMisConfig& config);

mpc::ClusterConfig cluster_config_for(const DetMisConfig& config,
                                      std::uint64_t n, std::uint64_t m);
sparsify::Params params_for(const DetMisConfig& config, std::uint64_t n);

}  // namespace dmpc::mis
