// Deterministic MIS and maximal matching in CONGESTED CLIQUE (Corollary 2).
//
// cc_mis: O(log Delta) rounds. Every node holds O(n) words, so with
// Delta <= n^{1/3} a node collects its 2-hop neighborhood in O(1) rounds
// (Lenzen routing) and the §5 phase-compression machinery applies with
// l = Theta(log_Delta n) phases per O(1)-round stage -> O(log Delta) stages.
// For larger Delta, l degrades gracefully to 1 and the bound becomes
// O(log n) = O(log Delta) (Delta = n^{Omega(1)}).
//
// cc_mis_censor_hillel: the prior state of the art [15]-style baseline —
// one Luby phase derandomized per step, the O(log n)-bit seed agreed
// bit-by-bit by voting (O(1) rounds per bit), i.e. Theta(log n) rounds per
// phase and O(log Delta * log n) rounds total. Reproduced for E7.
#pragma once

#include <cstdint>
#include <vector>

#include "cclique/clique.hpp"
#include "graph/graph.hpp"
#include "mpc/metrics.hpp"

namespace dmpc::cclique {

struct CcMisResult {
  std::vector<bool> in_set;
  std::uint64_t stages = 0;
  std::uint32_t phases_per_stage = 0;
  mpc::Metrics metrics;
};

/// Our O(log Delta)-round deterministic MIS.
CcMisResult cc_mis(const graph::Graph& g);

/// Baseline: [15]-style O(log Delta log n)-round deterministic MIS.
CcMisResult cc_mis_censor_hillel(const graph::Graph& g);

/// Maximal matching via MIS on the line graph (valid when the line graph's
/// degree O(Delta) admits the 2-hop collection, i.e. Delta = O(n^{1/3})).
struct CcMatchingResult {
  std::vector<graph::EdgeId> matching;
  CcMisResult mis;
};
CcMatchingResult cc_matching(const graph::Graph& g);

}  // namespace dmpc::cclique
