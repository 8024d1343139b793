// The §5 solvers: MIS and maximal matching in O(log Delta + log log n) MPC
// rounds for Delta <= n^{delta}.
//
// Pipeline (Lemma 22): preprocessing = distance-2 coloring (O(log* n)
// rounds) + r-hop ball gathering (O(log log n) rounds); then stages of
// l = Theta(delta log_Delta n) compressed Luby phases, each stage O(1)
// rounds, O(log Delta) stages total. Matching reduces to MIS on the line
// graph (§5, "Extension to maximal matching").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "lowdeg/coloring.hpp"
#include "lowdeg/phase_compression.hpp"
#include "mpc/cluster.hpp"
#include "mpc/metrics.hpp"

namespace dmpc::lowdeg {

struct LowDegConfig {
  double eps = 0.5;              ///< S = space_headroom * n^eps.
  double space_headroom = 8.0;
  std::uint64_t sequence_budget = 64;   ///< Candidate sequences per stage.
  std::uint64_t per_phase_cap = 1024;   ///< Per-phase seeds enumerable.
  std::uint32_t max_phases = 8;         ///< Upper clamp on l (sim cost).
  std::uint64_t max_stages = 100000;
  /// Host wiring (threads, overrides, fault plan, observers) of the clusters
  /// the cluster-creating overloads build. The cluster-taking lowdeg_mis
  /// reads none of it: whoever built that cluster set it up.
  mpc::ClusterSetup setup;
};

struct LowDegMisResult {
  std::vector<bool> in_set;
  std::uint64_t stages = 0;
  std::uint32_t phases_per_stage = 0;  ///< l.
  std::uint32_t colors = 0;            ///< Distance-2 palette size.
  std::vector<StageOutcome> outcomes;
  mpc::Metrics metrics;
  mpc::RecoveryStats recovery;  ///< All-zero for a fault-free run.
};

/// Phases per stage: the largest l with 4 * Delta^{2l+1} <= S (the radius-2l
/// ball with its incident edges must fit on one machine), at least 1,
/// clamped to max_phases.
std::uint32_t phases_for(const LowDegConfig& config, std::uint64_t space,
                         std::uint32_t max_degree);

LowDegMisResult lowdeg_mis(const graph::Graph& g, const LowDegConfig& config);
LowDegMisResult lowdeg_mis(mpc::Cluster& cluster, const graph::Graph& g,
                           const LowDegConfig& config);

struct LowDegMatchingResult {
  std::vector<graph::EdgeId> matching;
  LowDegMisResult line_mis;  ///< The underlying line-graph MIS run.
};

/// Maximal matching = MIS on the line graph (L(G) ids are EdgeIds of g).
LowDegMatchingResult lowdeg_matching(const graph::Graph& g,
                                     const LowDegConfig& config);

/// S = max(headroom * n^eps, 4 * Delta^3): the pipeline needs one radius-2
/// ball (Delta^2 nodes x Delta incident edges) per machine even at l = 1;
/// for Delta <= n^{eps/3} — the regime §5 targets — the second term is
/// within O(n^eps).
mpc::ClusterConfig cluster_config_for(const LowDegConfig& config,
                                      std::uint64_t n, std::uint64_t m,
                                      std::uint32_t max_degree);

}  // namespace dmpc::lowdeg
