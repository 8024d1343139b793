#include "graph/transforms.hpp"

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/validate.hpp"
#include "support/check.hpp"

namespace dmpc::graph {

Graph line_graph(const Graph& g) {
  const auto m = static_cast<NodeId>(g.num_edges());
  GraphBuilder b(std::max<NodeId>(m, 1));
  // For every node, connect all pairs of incident edges.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto inc = g.incident_edges(v);
    for (std::size_t i = 0; i < inc.size(); ++i) {
      for (std::size_t j = i + 1; j < inc.size(); ++j) {
        b.add_edge(static_cast<NodeId>(inc[i]), static_cast<NodeId>(inc[j]));
      }
    }
  }
  return std::move(b).build();
}

std::vector<EdgeId> line_mis_matching(const Graph& g,
                                      const std::vector<bool>& in_set) {
  std::vector<EdgeId> matching;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_set[e]) matching.push_back(e);
  }
  DMPC_CHECK_MSG(is_maximal_matching(g, matching),
                 "line-graph MIS did not map to a maximal matching");
  return matching;
}

InducedSubgraph induced(const Graph& g, const std::vector<bool>& keep) {
  DMPC_CHECK(keep.size() == g.num_nodes());
  InducedSubgraph out;
  std::vector<NodeId> remap(g.num_nodes(), kNoNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (keep[v]) {
      remap[v] = static_cast<NodeId>(out.original.size());
      out.original.push_back(v);
    }
  }
  GraphBuilder b(std::max<NodeId>(static_cast<NodeId>(out.original.size()), 1));
  for (const Edge& e : g.edges()) {
    if (keep[e.u] && keep[e.v]) b.add_edge(remap[e.u], remap[e.v]);
  }
  out.graph = std::move(b).build();
  return out;
}

Graph edge_subgraph(const Graph& g, const std::vector<bool>& edge_mask) {
  DMPC_CHECK(edge_mask.size() == g.num_edges());
  GraphBuilder b(std::max<NodeId>(g.num_nodes(), 1));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (edge_mask[e]) b.add_edge(g.edge(e).u, g.edge(e).v);
  }
  return std::move(b).build();
}

}  // namespace dmpc::graph
