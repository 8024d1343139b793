// Test-local reference for the square graph G^2: same nodes, an edge
// between every pair at distance 1 or 2. The library colors G^2 without
// building it (lowdeg/coloring.hpp); tests build it here to check that the
// implicit 2-hop walk gives exactly Linial-on-G^2.
#pragma once

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/graph.hpp"

namespace dmpc::testref {

inline graph::Graph square(const graph::Graph& g) {
  using graph::NodeId;
  graph::GraphBuilder b(std::max<NodeId>(g.num_nodes(), 1));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto nb = g.neighbors(v);
    for (NodeId u : nb) {
      if (v < u) b.add_edge(v, u);
    }
    // Distance-2 pairs through v.
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        b.add_edge(nb[i], nb[j]);
      }
    }
  }
  return std::move(b).build();
}

}  // namespace dmpc::testref
