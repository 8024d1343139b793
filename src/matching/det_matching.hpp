// Deterministic maximal matching in O(log n) MPC rounds (§3, Theorem 7).
//
// Per iteration (Algorithm 2):
//   1. select good nodes B and edge set E_0 (good_nodes.hpp, Corollary 8);
//   2. sparsify E_0 to E* so every degree is O(n^{4 delta})
//      (edge_sparsifier.hpp, Invariants (i)/(ii));
//   3. gather 2-hop neighborhoods of B-nodes in E* onto machines
//      (space O(n^{8 delta}) = O(n^eps) per machine, §3.3);
//   4. derandomize the Lemma-13 candidate matching: a pairwise hash h gives
//      each E* edge a priority z_e; E_h = local minima (a matching);
//      objective q(h) = sum of d(v) over matched B-nodes, with
//      E[q] >= (1/109) sum_{v in B} d(v) >= delta |E| / 218;
//   5. commit a seed meeting the threshold, add E_h to the output, delete
//      matched nodes — removing >= delta |E| / 536 edges.
//
// Loop until no edges remain: O(log n) iterations, O(1) charged MPC rounds
// each (all communication flows through Lemma-4 primitives).
#pragma once

#include <cstdint>
#include <vector>

#include "derand/seed_search.hpp"
#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "mpc/metrics.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/params.hpp"
#include "sparsify/stage.hpp"

namespace dmpc::matching {

/// The Lemma 13 constant: the committed seed must reach
/// q >= kLemma13Threshold * sum_{v in B} d(v) (before finite-n halving,
/// see derand::select_seed).
inline constexpr double kLemma13Threshold = 1.0 / 109.0;

/// The configuration of both sparsification pipelines (this one and
/// mis::det_mis, whose DetMisConfig names the same type).
struct DetMatchingConfig {
  /// Space exponent: S = space_headroom * n^eps words per machine; the
  /// pipelines use the paper's delta = eps/8.
  double eps = 0.5;
  /// Constant-factor headroom on S (the paper's O(n^{8 delta}) constants).
  double space_headroom = 8.0;
  sparsify::SparsifyConfig sparsify;
  /// Candidates per selection batch; the best candidate meeting the
  /// threshold is committed (better practical progress at the same cost).
  std::uint64_t selection_batch = 16;
  std::uint64_t max_iterations = 100000;
  derand::SelectionMode selection_mode =
      derand::SelectionMode::kThresholdSearch;
  /// Host wiring (threads, overrides, fault plan, observers) of the cluster
  /// the cluster-creating overload builds. The cluster-taking overload reads
  /// none of it: whoever built that cluster set it up.
  mpc::ClusterSetup setup;
};

/// One iteration of either pipeline (matching/luby.hpp runs both).
struct IterationReport {
  std::uint64_t iteration = 0;
  std::uint32_t cls = 0;                ///< Class i chosen by Corollary 8/16.
  graph::EdgeId edges_before = 0;
  graph::EdgeId edges_after = 0;
  std::uint64_t committed = 0;          ///< |E_h| or |I_h| committed.
  std::uint64_t isolated_added = 0;     ///< MIS only: isolated nodes added.
  double progress_fraction = 0.0;       ///< Removed / edges_before.
  std::uint64_t selection_trials = 0;
  std::uint64_t sparsify_stages = 0;
  std::uint32_t sparse_max_degree = 0;  ///< Max degree inside E* / Q'.
  /// Worst measured §3.2/§4.2 invariants across this iteration's stages.
  sparsify::StageInvariants worst;
};

struct DetMatchingResult {
  std::vector<graph::EdgeId> matching;
  std::uint64_t iterations = 0;
  std::vector<IterationReport> reports;
  mpc::Metrics metrics;
  mpc::RecoveryStats recovery;  ///< All-zero for a fault-free run.
};

/// Creates the cluster per the config and runs the full loop.
DetMatchingResult det_maximal_matching(const graph::Graph& g,
                                       const DetMatchingConfig& config);

/// As above, against a caller-provided cluster (metrics accumulate there).
DetMatchingResult det_maximal_matching(mpc::Cluster& cluster,
                                       const graph::Graph& g,
                                       const DetMatchingConfig& config);

/// The §3/§4 provisioning formula of both sparsification pipelines (MIS
/// and matching) and Solver::cluster_config: S = max(64, space_headroom *
/// n^eps) words, M = ceil(mpc::kTotalSpaceFactor * (m + n + 2) / S) + 1.
mpc::ClusterConfig sparsification_cluster_config(double eps,
                                                 double space_headroom,
                                                 std::uint64_t n,
                                                 std::uint64_t m);

/// The cluster the config would build for graph size (n, m), before
/// setup.overrides.
mpc::ClusterConfig cluster_config_for(const DetMatchingConfig& config,
                                      std::uint64_t n, std::uint64_t m);

/// Effective sparsification parameters for the config on an n-node graph.
sparsify::Params params_for(const DetMatchingConfig& config, std::uint64_t n);

namespace detail {

/// No E* edge is incident to the node.
inline constexpr std::uint32_t kNoPosition = 0xFFFFFFFFu;

/// Per-node argmins of the Lemma-13 priority: best[w] = the E*-position i
/// minimizing (priority[i], i) over the E* edges incident to w, or
/// kNoPosition. `estar` lists the E* edges' endpoints in ascending edge-id
/// order, so the position tie-break is the lemma's id tie-break. An edge is
/// a local minimum (in E_h) exactly when it is the argmin at both endpoints.
/// One pass, O(n + |E*|); `best` is resized to n.
void incidence_argmins(std::uint32_t n, const std::vector<graph::Edge>& estar,
                       const std::uint64_t* priority,
                       std::vector<std::uint32_t>& best);

/// E_h as ascending E*-positions: the edges with best[u] == best[v] == i.
std::vector<std::uint32_t> local_minima(std::uint32_t n,
                                        const std::vector<graph::Edge>& estar,
                                        const std::uint64_t* priority);

}  // namespace detail

}  // namespace dmpc::matching
