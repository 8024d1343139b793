// Deterministic node sparsification (§4.2): from Q_0 to Q' in O(1) stages.
//
// Stage j sub-samples Q_{j-1} at rate n^{-delta} by hashing *node* ids.
// Type-Q machines (chunks of each Q-node's Q-neighbor list) enforce the
// degree upper bound (Invariant (i), Lemma 17); type-B machines (chunks of
// each B-node's Q-neighbor list, weighted by 1/d(u)) enforce the harmonic
// lower bound sum_{u in Q_j ~ v} 1/d(u) >= (delta - o(1)) / (3 n^{delta j})
// (Invariant (ii), Lemma 18). The stage is shared with §3.2 (stage.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/params.hpp"
#include "sparsify/stage.hpp"

namespace dmpc::sparsify {

struct NodeSparsifyResult {
  std::vector<bool> in_Qprime;        ///< Node mask of Q'.
  std::vector<StageReport> stages;
  std::uint32_t max_degree = 0;       ///< Max degree inside Q'.
};

/// Run §4.2 on the chosen good set; `alive` masks the current graph.
NodeSparsifyResult sparsify_nodes(mpc::Cluster& cluster, const Params& params,
                                  const graph::Graph& g,
                                  const std::vector<bool>& alive,
                                  const MisGoodSet& good,
                                  const SparsifyConfig& config);

}  // namespace dmpc::sparsify
