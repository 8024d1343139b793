#include "lowdeg/neighborhoods.hpp"

#include <algorithm>
#include <queue>

#include "support/check.hpp"
#include "support/math.hpp"

namespace dmpc::lowdeg {

using graph::Graph;
using graph::NodeId;

std::uint64_t gather_neighborhoods(mpc::Cluster& cluster, const Graph& g,
                                   const std::vector<bool>& alive,
                                   std::uint32_t radius) {
  DMPC_CHECK(radius >= 1);
  std::uint64_t max_ball = 0;

  // Central truncated BFS per node; the model cost is the doubling scheme.
  std::vector<std::uint32_t> dist(g.num_nodes(), UINT32_MAX);
  std::vector<NodeId> touched;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!alive[v]) continue;
    touched.clear();
    std::queue<NodeId> frontier;
    dist[v] = 0;
    frontier.push(v);
    touched.push_back(v);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      if (dist[u] == radius) continue;
      for (NodeId w : g.neighbors(u)) {
        if (!alive[w] || dist[w] != UINT32_MAX) continue;
        dist[w] = dist[u] + 1;
        frontier.push(w);
        touched.push_back(w);
      }
    }
    max_ball = std::max<std::uint64_t>(max_ball, touched.size());
    for (NodeId w : touched) dist[w] = UINT32_MAX;
  }

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
