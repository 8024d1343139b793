// Deterministic edge sparsification (§3.2): from E_0 to E* in O(1) stages.
//
// Stage j sub-samples E_{j-1} at rate n^{-delta} using a c-wise independent
// hash on edge ids, derandomized so that every "machine" (a chunk of one
// node's incident edge list, group size n^{4 delta}) is *good*: its kept
// count lands within a concentration window around the expectation
// (paper: e_x n^{-delta} ± n^{0.1 delta} sqrt(e_x)). Type-A machines
// (all incident edges) make the degree upper bound (Invariant (i),
// Lemma 10); type-B machines (the X(v) lists of good nodes) make the
// lower bound (Invariant (ii), Lemma 11). After max(0, i-4) stages every
// degree in E* is O(n^{4 delta}) and 2-hop neighborhoods fit on a machine.
//
// The stage is shared with §4.2 (stage.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/params.hpp"
#include "sparsify/stage.hpp"

namespace dmpc::sparsify {

struct EdgeSparsifyResult {
  std::vector<bool> in_Estar;        ///< Edge mask of E* over g.num_edges().
  std::vector<StageReport> stages;
  std::uint32_t max_degree = 0;      ///< Max degree within E*.
  /// X(v) ∩ E* lists for v in B (aligned with the good set's xv).
  std::vector<std::vector<graph::EdgeId>> xv_star;
};

/// Run §3.2 on the chosen good set. `good.in_E0`/`good.xv` define E_0; the
/// result's mask is a subset of it.
EdgeSparsifyResult sparsify_edges(mpc::Cluster& cluster, const Params& params,
                                  const graph::Graph& g,
                                  const MatchingGoodSet& good,
                                  const SparsifyConfig& config);

}  // namespace dmpc::sparsify
