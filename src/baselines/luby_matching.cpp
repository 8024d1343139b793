#include "baselines/luby_matching.hpp"

#include "exec/parallel.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dmpc::baselines {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

LubyMatchingResult luby_matching(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  LubyMatchingResult result;
  std::vector<bool> alive(g.num_nodes(), true);
  std::vector<std::uint64_t> priority(g.num_edges());
  const auto serial = exec::Executor::serial();

  auto edge_alive = [&](EdgeId e) {
    return alive[g.edge(e).u] && alive[g.edge(e).v];
  };

  while (graph::alive_edge_count(g, alive, serial) > 0) {
    for (auto& p : priority) p = rng.next_u64();
    // An edge joins iff it is a local minimum among alive adjacent edges.
    std::vector<EdgeId> joiners;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!edge_alive(e)) continue;
      bool is_min = true;
      for (NodeId endpoint : {g.edge(e).u, g.edge(e).v}) {
        for (EdgeId f : g.incident_edges(endpoint)) {
          if (f == e || !edge_alive(f)) continue;
          if (priority[f] < priority[e] ||
              (priority[f] == priority[e] && f < e)) {
            is_min = false;
            break;
          }
        }
        if (!is_min) break;
      }
      if (is_min) joiners.push_back(e);
    }
    DMPC_CHECK_MSG(!joiners.empty(), "Luby matching round made no progress");
    for (EdgeId e : joiners) {
      result.matching.push_back(e);
      alive[g.edge(e).u] = false;
      alive[g.edge(e).v] = false;
    }
    ++result.iterations;
    result.edges_after.push_back(graph::alive_edge_count(g, alive, serial));
  }
  return result;
}

}  // namespace dmpc::baselines
