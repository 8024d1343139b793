#include "congest/congest_mis.hpp"

#include <algorithm>

#include "derand/seed_search.hpp"
#include "exec/parallel.hpp"
#include "graph/algorithms.hpp"
#include "hash/kwise.hpp"
#include "lowdeg/phase_compression.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dmpc::congest {

using graph::Graph;
using graph::NodeId;

namespace {

/// BFS depth from node 0 within each component (max over components; a
/// disconnected graph runs the protocol per component in parallel).
std::uint32_t bfs_depth(const Graph& g) {
  std::uint32_t depth = 0;
  std::vector<bool> seen(g.num_nodes(), false);
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (seen[start]) continue;
    const auto dist = graph::bfs_distances(g, start);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] != UINT32_MAX) {
        seen[v] = true;
        depth = std::max(depth, dist[v]);
      }
    }
  }
  return depth;
}

/// One Luby phase's priorities z_v = fn(v) over node ids (alive nodes only).
std::vector<std::uint64_t> priorities(const Graph& g,
                                      const std::vector<bool>& alive,
                                      const hash::HashFn& fn) {
  std::vector<std::uint64_t> z(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) z[v] = fn.raw(v);
  }
  return z;
}

}  // namespace

CongestMisResult congest_mis(const Graph& g) {
  CongestNetwork net(g);
  CongestMisResult result;
  result.in_set.assign(g.num_nodes(), false);
  if (g.num_nodes() == 0) return result;
  std::vector<bool> alive(g.num_nodes(), true);
  result.bfs_depth = bfs_depth(g);
  // Building the BFS coordination tree: D rounds, once.
  net.charge_rounds(std::max<std::uint32_t>(result.bfs_depth, 1),
                    "congest/bfs_tree");

  const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_nodes());
  hash::KWiseFamily family(domain, domain, /*k=*/2);

  // Every node starts alive; each phase's outcome carries the alive edge
  // count it leaves.
  graph::EdgeId remaining = g.num_edges();
  while (remaining > 0) {
    DMPC_CHECK_MSG(result.phases < kMaxPhases, "phase cap exceeded");
    ++result.phases;
    // Deterministic best-of-K: candidates along the scrambled seed walk of
    // this phase, objective = fewest edges left.
    const auto walk =
        derand::SeedWalk::scrambled(family.seed_count(), result.phases);
    const auto phase = lowdeg::best_of_candidates(
        g, alive, kCandidatesPerPhase, exec::Executor::serial(),
        [&](std::uint64_t t, std::span<const NodeId> active,
            std::vector<bool>& live) {
          const auto fn = family.at(walk.at(t));
          auto won = graph::winners(g, active, live,
                                    [&fn](NodeId v) { return fn.raw(v); });
          graph::remove_closed(g, won, live);
          return won;
        });
    DMPC_CHECK_MSG(!phase.independent.empty(),
                   "CONGEST phase made no progress");
    // Round bill: 2 local rounds (neighbors exchange priorities; winners
    // announce) + the tree aggregation of K objective values + broadcast.
    net.charge_rounds(2, "congest/phase_local");
    net.charge_tree_aggregation(result.bfs_depth, kCandidatesPerPhase,
                                "congest/phase_vote");
    for (NodeId v : phase.independent) result.in_set[v] = true;
    remaining = phase.edges_after;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) result.in_set[v] = true;
  }
  result.metrics = net.metrics();
  return result;
}

CongestMisResult luby_mis_congest(const Graph& g, std::uint64_t seed) {
  CongestNetwork net(g);
  CongestMisResult result;
  result.in_set.assign(g.num_nodes(), false);
  if (g.num_nodes() == 0) return result;
  std::vector<bool> alive(g.num_nodes(), true);

  Rng rng(seed);
  const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_nodes());
  hash::KWiseFamily family(domain, domain, /*k=*/2);
  while (graph::alive_edge_count(g, alive, exec::Executor::serial()) > 0) {
    ++result.phases;
    const auto winners = graph::winners(
        g, alive,
        priorities(g, alive, family.at(rng.next_below(family.seed_count()))));
    // Retry on a fruitless draw (possible but rare with random seeds).
    if (winners.empty()) continue;
    net.charge_rounds(2, "congest/phase_local");
    for (NodeId v : winners) result.in_set[v] = true;
    graph::remove_closed(g, winners, alive);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) result.in_set[v] = true;
  }
  result.metrics = net.metrics();
  return result;
}

}  // namespace dmpc::congest
