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
#include "matching/det_matching.hpp"  // DetMatchingConfig
#include "mpc/cluster.hpp"
#include "mpc/metrics.hpp"

namespace dmpc::mis {

/// The Lemma 21 constant: the committed seed must reach
/// q >= kLemma21Threshold * delta * sum_{v in B} d(v) (before finite-n
/// halving, see derand::select_seed).
inline constexpr double kLemma21Threshold = 0.01;

/// Both sparsification pipelines take one configuration type.
using DetMisConfig = matching::DetMatchingConfig;

struct DetMisResult {
  std::vector<bool> in_set;
  std::uint64_t iterations = 0;
  std::vector<matching::IterationReport> reports;
  mpc::Metrics metrics;
  mpc::RecoveryStats recovery;  ///< All-zero for a fault-free run.
};

DetMisResult det_mis(const graph::Graph& g, const DetMisConfig& config);
DetMisResult det_mis(mpc::Cluster& cluster, const graph::Graph& g,
                     const DetMisConfig& config);

}  // namespace dmpc::mis
