#include "mpc/distribution.hpp"

#include "mpc/primitives.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace dmpc::mpc {

void charge_group_distribution(Cluster& cluster, std::uint64_t total_items,
                               std::uint64_t group_size, std::uint64_t arity,
                               const std::string& label) {
  DMPC_CHECK(group_size >= 1);
  cluster.check_load(group_size * arity, label + ": group machine", label);
  // Distributing items to their group machines is one sort by
  // (owner, position) over the item records.
  const std::uint64_t rounds = sort_round_cost(cluster, total_items);
  cluster.charge(label, rounds, total_items * arity);
  obs::trace_primitive(cluster.trace(), label, rounds, total_items * arity);
}

void charge_two_hop_gather(Cluster& cluster,
                           const std::vector<std::uint64_t>& two_hop_words,
                           const std::vector<bool>& centers,
                           const std::string& label) {
  DMPC_CHECK(two_hop_words.size() == centers.size());
  std::uint64_t total = 0;
  for (std::size_t v = 0; v < centers.size(); ++v) {
    if (!centers[v]) continue;
    cluster.check_load(
        two_hop_words[v],
        label + ": 2-hop neighborhood of node " + std::to_string(v), label);
    total += two_hop_words[v];
  }
  // Sort edges to collect 1-hop lists, then one request + one response
  // exchange for the second hop (§2.2).
  const std::uint64_t rounds = sort_round_cost(cluster, std::max<std::uint64_t>(total, 2)) + 2;
  cluster.charge(label, rounds, total);
  obs::trace_primitive(cluster.trace(), label, rounds, total);
}

}  // namespace dmpc::mpc
