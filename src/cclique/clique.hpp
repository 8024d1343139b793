// The CONGESTED CLIQUE model (paper §1.1.2).
//
// n nodes on a complete communication graph; per round every node may send
// a distinct O(log n)-bit message to every other node. Lenzen's routing
// theorem lets any instance where each node sends and receives at most n
// messages be delivered in O(1) rounds; we expose it as a charged primitive.
// As with the MPC simulator, algorithms execute centrally while rounds and
// message volumes are charged faithfully — those are the quantities
// Corollary 2 bounds.
#pragma once

#include <cstdint>
#include <string>

#include "mpc/metrics.hpp"
#include "support/check.hpp"

namespace dmpc::cclique {

class CongestedClique {
 public:
  explicit CongestedClique(std::uint64_t n) : n_(n) {
    DMPC_CHECK(n >= 1);
  }

  std::uint64_t nodes() const { return n_; }

  const mpc::Metrics& metrics() const { return metrics_; }

  /// Charge r synchronous all-to-all rounds.
  void charge_rounds(std::uint64_t r, const std::string& label) {
    metrics_.charge(label, r, r * n_ * n_);
  }

  /// Lenzen routing: any send/receive-balanced instance of `messages`
  /// messages in O(1) rounds. Each node's share must be <= n.
  void charge_lenzen_routing(std::uint64_t messages, const std::string& label) {
    DMPC_CHECK_MSG(messages <= n_ * n_,
                   label << ": routing instance exceeds clique bandwidth");
    metrics_.charge(label, 2, messages);
  }

  /// Per-node memory check: in CONGESTED CLIQUE a node may hold O(n) words
  /// (the model's implicit bound used by [15]-style algorithms).
  void check_node_memory(std::uint64_t words, const std::string& label) const {
    DMPC_CHECK_MSG(words <= 4 * n_,
                   label << ": node memory " << words << " exceeds O(n)");
  }

 private:
  std::uint64_t n_;
  mpc::Metrics metrics_;
};

}  // namespace dmpc::cclique
