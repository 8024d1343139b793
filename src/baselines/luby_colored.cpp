#include "baselines/luby_colored.hpp"

#include "hash/small_family.hpp"
#include "lowdeg/coloring.hpp"
#include "support/check.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace dmpc::baselines {

using graph::Graph;
using graph::NodeId;

ColoredLubyResult luby_mis_colored(const Graph& g, std::uint64_t seed) {
  ColoredLubyResult result;
  result.in_set.assign(g.num_nodes(), false);
  if (g.num_nodes() == 0) return result;
  std::vector<bool> alive(g.num_nodes(), true);
  if (g.num_edges() == 0) {
    result.in_set.assign(g.num_nodes(), true);
    return result;
  }

  const auto coloring =
      lowdeg::distance2_coloring_raw(g, exec::Executor::serial());
  result.colors = coloring.num_colors;
  hash::SmallFamily family(std::max<std::uint32_t>(coloring.num_colors, 2));
  result.seed_bits_per_phase =
      2 * ceil_log2(std::max<std::uint64_t>(family.p(), 2));

  Rng rng(seed);
  std::vector<std::uint64_t> z(g.num_nodes());
  while (graph::alive_edge_count(g, alive, exec::Executor::serial()) > 0) {
    ++result.phases;
    const auto fn = family.at(rng.next_below(family.seed_count()));
    // Priorities per color class; distance-2 distinct colors make adjacent
    // (and 2-hop) nodes' priorities pairwise independent.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (alive[v]) z[v] = fn.raw(coloring.color[v]);
    }
    const auto winners = graph::winners(g, alive, z);
    DMPC_CHECK_MSG(!winners.empty(), "colored Luby phase made no progress");
    for (NodeId v : winners) result.in_set[v] = true;
    graph::remove_closed(g, winners, alive);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) result.in_set[v] = true;
  }
  return result;
}

}  // namespace dmpc::baselines
