#include "baselines/israeli_itai.hpp"

#include "exec/parallel.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dmpc::baselines {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

IsraeliItaiResult israeli_itai(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  IsraeliItaiResult result;
  std::vector<bool> alive(g.num_nodes(), true);

  while (graph::alive_edge_count(g, alive, exec::Executor::serial()) > 0) {
    ++result.iterations;
    // Phase 1: every alive non-isolated node proposes to a uniformly random
    // alive neighbor.
    std::vector<NodeId> proposal(g.num_nodes(), graph::kNoNode);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!alive[v]) continue;
      std::vector<NodeId> alive_nb;
      for (NodeId u : g.neighbors(v)) {
        if (alive[u]) alive_nb.push_back(u);
      }
      if (alive_nb.empty()) continue;
      proposal[v] = alive_nb[rng.next_below(alive_nb.size())];
    }
    // Phase 2: a node with incoming proposals accepts one at random; the
    // accepted proposal edge joins a candidate set, which is then thinned to
    // a matching by random coin flips on conflicts (we keep it simple and
    // accept greedily in random order — still a valid matching step with
    // constant expected progress).
    auto order = rng.permutation(g.num_nodes());
    std::vector<bool> used(g.num_nodes(), false);
    bool progressed = false;
    for (NodeId v : order) {
      const NodeId u = proposal[v];
      if (u == graph::kNoNode || used[v] || used[u]) continue;
      const EdgeId e = g.find_edge(v, u);
      DMPC_CHECK(e != graph::kNoEdge);
      result.matching.push_back(e);
      used[v] = used[u] = true;
      alive[v] = alive[u] = false;
      progressed = true;
    }
    DMPC_CHECK_MSG(progressed, "Israeli-Itai round made no progress");
  }
  return result;
}

}  // namespace dmpc::baselines
