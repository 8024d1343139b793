#include "lowdeg/neighborhoods.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/math.hpp"

namespace dmpc::lowdeg {

using graph::Graph;
using graph::NodeId;

namespace {

constexpr std::uint32_t kUnreached = UINT32_MAX;

/// Size of v's r-hop ball restricted to alive nodes: a truncated BFS whose
/// visit list doubles as its queue. The distance array is per thread,
/// reused across nodes, calls and graphs, and left all-kUnreached.
std::uint64_t ball_size(const Graph& g, const std::vector<bool>& alive,
                        NodeId v, std::uint32_t radius) {
  thread_local std::vector<std::uint32_t> dist;
  thread_local std::vector<NodeId> ball;
  if (dist.size() < g.num_nodes()) dist.resize(g.num_nodes(), kUnreached);
  ball.clear();
  dist[v] = 0;
  ball.push_back(v);
  for (std::size_t head = 0; head < ball.size(); ++head) {
    const NodeId u = ball[head];
    if (dist[u] == radius) continue;
    for (NodeId w : g.neighbors(u)) {
      if (!alive[w] || dist[w] != kUnreached) continue;
      dist[w] = dist[u] + 1;
      ball.push_back(w);
    }
  }
  for (NodeId w : ball) dist[w] = kUnreached;
  return ball.size();
}

}  // namespace

std::uint64_t largest_ball(const Graph& g, const std::vector<bool>& alive,
                           std::uint32_t radius, const exec::Executor& ex) {
  return ex.map_reduce(
      std::uint64_t{0}, std::uint64_t{g.num_nodes()}, std::uint64_t{0},
      [&](std::uint64_t v) -> std::uint64_t {
        if (!alive[v]) return 0;
        return ball_size(g, alive, static_cast<NodeId>(v), radius);
      },
      [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
}

std::uint64_t gather_neighborhoods(mpc::Cluster& cluster, const Graph& g,
                                   const std::vector<bool>& alive,
                                   std::uint32_t radius) {
  DMPC_CHECK(radius >= 1);
  // Host-side BFS per node; the model cost is the doubling scheme.
  const std::uint64_t max_ball =
      largest_ball(g, alive, radius, cluster.executor());

  // Space: a ball of b nodes with degree <= Delta needs O(b * Delta) words
  // to hold the induced edges.
  const std::uint64_t words =
      max_ball * std::max<std::uint32_t>(g.max_degree(), 1);
  cluster.check_load(words, "gather_neighborhoods", "lowdeg/gather");
  const std::uint64_t rounds =
      ceil_log2(std::max<std::uint64_t>(radius, 2)) + 1;
  cluster.charge("lowdeg/gather", rounds, words * cluster.machines());
  return max_ball;
}

}  // namespace dmpc::lowdeg
