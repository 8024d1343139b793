#include "matching/line_graph_matching.hpp"

#include "graph/transforms.hpp"

namespace dmpc::matching {

using graph::Graph;

LineGraphMatchingResult det_matching_via_line_graph(
    const Graph& g, const mis::DetMisConfig& config) {
  LineGraphMatchingResult result;
  if (g.num_edges() == 0) return result;
  const Graph lg = graph::line_graph(g);
  result.line_mis = mis::det_mis(lg, config);
  result.matching = graph::line_mis_matching(g, result.line_mis.in_set);
  return result;
}

}  // namespace dmpc::matching
