// Paper-specific data distribution charges.
//
// §3.2 / §4.2 distribute each node's incident edge list across a *group* of
// machines holding `group_size` items each ("type A" / "type B" machines);
// §3.3 / §4.3 assign each good node a machine x_v that gathers its 2-hop
// neighborhood in the sparsified graph. These helpers space-check the
// layouts against the cluster and charge the O(1) distribution rounds (a
// constant number of sort/scan invocations, per §2.2); the layouts
// themselves are never materialized.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpc/cluster.hpp"

namespace dmpc::mpc {

/// Charge the distribution of `total_items` list items to groups of
/// machines of `group_size` items each, all but at most one full per owner
/// (paper: "n^{4 delta} edges on all but at most one machine"), at `arity`
/// words per item. Space-checks group_size*arity against the cluster and
/// charges one sort over the item records to `label`.
void charge_group_distribution(Cluster& cluster, std::uint64_t total_items,
                               std::uint64_t group_size, std::uint64_t arity,
                               const std::string& label);

/// Space accounting for the §3.3 gather: for each center v (mask true), the
/// machine x_v stores every incident item plus the neighborhoods of the
/// other endpoints — `two_hop_words(v)` words. Checks each against S and
/// charges the O(1) gather rounds (sort to collect 1-hop lists + one
/// request/response exchange, per §2.2).
void charge_two_hop_gather(Cluster& cluster,
                           const std::vector<std::uint64_t>& two_hop_words,
                           const std::vector<bool>& centers,
                           const std::string& label);

}  // namespace dmpc::mpc
