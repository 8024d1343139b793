// Graph transforms: line graph, square graph, induced subgraphs.
//
// The line graph L(G) realizes the paper's reduction "maximal matching in G
// = MIS in L(G)" (§2.1, §5); the square graph G^2 is the target of the
// O(Delta^4) coloring in §5.1 (2-hop-distinct names).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace dmpc::graph {

/// Line graph: node i of L(G) is edge i of G; two nodes are adjacent iff the
/// edges share an endpoint. Size is sum_v d(v)^2 / 2 - m, so only suitable
/// for bounded-degree inputs (exactly the regime §5 uses it in).
Graph line_graph(const Graph& g);

/// The matching an MIS of line_graph(g) names (§2.1): the edges e with
/// in_set[e], ascending. Checks that it is maximal in g.
std::vector<EdgeId> line_mis_matching(const Graph& g,
                                      const std::vector<bool>& in_set);

/// Square graph: same nodes, edges between every pair at distance 1 or 2.
Graph square(const Graph& g);

/// Induced subgraph on the nodes with keep[v] == true. Node ids are
/// remapped to 0..k-1 in increasing original order; `original` returns the
/// reverse mapping.
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> original;  // new id -> old id
};
InducedSubgraph induced(const Graph& g, const std::vector<bool>& keep);

/// Subgraph with the same node set but only the edges whose mask bit is set.
Graph edge_subgraph(const Graph& g, const std::vector<bool>& edge_mask);

}  // namespace dmpc::graph
