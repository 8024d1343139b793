// Test-local §2.1 reduction: a maximal matching of G is an MIS of its line
// graph L(G). Runs the §4 deterministic MIS on the materialized L(G) and
// maps the set back to edges, so test_crosscheck can check the direct §3
// pipeline against an independent one.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/transforms.hpp"
#include "mis/det_mis.hpp"

namespace dmpc::testref {

inline std::vector<graph::EdgeId> matching_via_line_graph(
    const graph::Graph& g) {
  if (g.num_edges() == 0) return {};
  const auto line_mis = mis::det_mis(graph::line_graph(g), {});
  return graph::line_mis_matching(g, line_mis.in_set);
}

}  // namespace dmpc::testref
