// The CONGEST model — the paper's §6 names it as the next target for this
// derandomization method ("low space or limited bandwidth models (e.g., the
// CONGEST model)"), so the library ships it as an extension module.
//
// Nodes of the input graph compute in synchronous rounds; per round, each
// node may send one B = O(log n)-bit message over each incident edge.
// As with the other model adapters, algorithms execute centrally while
// rounds and message volume are charged faithfully. Global coordination
// (leader election, seed voting) happens over a BFS spanning tree whose
// depth D enters the round bill — the quantity that distinguishes CONGEST
// bounds from CONGESTED CLIQUE ones.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "mpc/metrics.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace dmpc::congest {

class CongestNetwork {
 public:
  explicit CongestNetwork(const graph::Graph& g, std::uint32_t message_bits = 0)
      : g_(&g),
        message_bits_(message_bits != 0
                          ? message_bits
                          : 2 * static_cast<std::uint32_t>(ceil_log2(
                                    std::max<std::uint64_t>(g.num_nodes(), 2)))) {
    DMPC_CHECK(message_bits_ >= 1);
  }

  const graph::Graph& graph() const { return *g_; }
  std::uint32_t message_bits() const { return message_bits_; }

  const mpc::Metrics& metrics() const { return metrics_; }

  /// Charge r synchronous rounds (communication: every edge may carry one
  /// message each way per round).
  void charge_rounds(std::uint64_t r, const std::string& label) {
    metrics_.charge(label, r, r * 2 * g_->num_edges());
  }

  /// Charge a converge-cast + broadcast over a BFS tree of depth `depth`,
  /// carrying `values` B-bit values (pipelined: depth + values rounds up,
  /// the same coming down).
  void charge_tree_aggregation(std::uint64_t depth, std::uint64_t values,
                               const std::string& label) {
    charge_rounds(2 * (depth + values), label);
  }

 private:
  const graph::Graph* g_;
  std::uint32_t message_bits_;
  mpc::Metrics metrics_;
};

}  // namespace dmpc::congest
