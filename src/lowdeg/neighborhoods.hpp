// r-hop neighborhood gathering (§5.2.1).
//
// With Delta <= n^{delta} and r = O(delta log_Delta n), each node's r-hop
// ball has at most Delta^r = n^{O(delta)} nodes and fits on one machine.
// Graph-exponentiation doubling collects the balls in O(log r) MPC rounds —
// this is the source of Theorem 1's additive O(log log n) term, so the
// charge is log-accurate rather than folded into a constant.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/parallel.hpp"
#include "graph/graph.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::lowdeg {

/// Largest r-hop ball, centre included, over the alive nodes, with the
/// balls restricted to alive nodes (0 when no node is alive). One truncated
/// BFS per node on `ex`, with per-thread scratch; the result is identical
/// at every thread count.
std::uint64_t largest_ball(const graph::Graph& g,
                           const std::vector<bool>& alive,
                           std::uint32_t radius, const exec::Executor& ex);

/// Measure the r-hop balls restricted to alive nodes without storing them:
/// space-checks the largest one against the cluster, charges
/// ceil(log2(r)) + 1 doubling rounds under "lowdeg/gather", and returns the
/// largest ball's size (0 when no node is alive).
std::uint64_t gather_neighborhoods(mpc::Cluster& cluster,
                                   const graph::Graph& g,
                                   const std::vector<bool>& alive,
                                   std::uint32_t radius);

}  // namespace dmpc::lowdeg
