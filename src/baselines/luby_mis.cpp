#include "baselines/luby_mis.hpp"

#include <functional>

#include "exec/parallel.hpp"
#include "hash/kwise.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dmpc::baselines {

using graph::Graph;
using graph::NodeId;

namespace {

LubyMisResult run(const Graph& g,
                  const std::function<void(std::vector<std::uint64_t>&)>&
                      draw_priorities) {
  LubyMisResult result;
  result.in_set.assign(g.num_nodes(), false);
  std::vector<bool> alive(g.num_nodes(), true);
  std::vector<std::uint64_t> priority(g.num_nodes());
  const auto serial = exec::Executor::serial();
  while (graph::alive_edge_count(g, alive, serial) > 0) {
    draw_priorities(priority);
    const auto winners = graph::winners(g, alive, priority);
    DMPC_CHECK_MSG(!winners.empty(), "Luby round made no progress");
    for (NodeId v : winners) result.in_set[v] = true;
    graph::remove_closed(g, winners, alive);
    ++result.iterations;
    result.edges_after.push_back(graph::alive_edge_count(g, alive, serial));
  }
  // Isolated survivors join the set.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) result.in_set[v] = true;
  }
  return result;
}

}  // namespace

LubyMisResult luby_mis(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  return run(g, [&rng](std::vector<std::uint64_t>& priority) {
    for (auto& p : priority) p = rng.next_u64();
  });
}

LubyMisResult luby_mis_pairwise(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t domain =
      std::max<std::uint64_t>(2, g.num_nodes());
  // Domain/range n^3 per the paper's convention (§2.3), capped for safety.
  const std::uint64_t cube =
      domain < (1u << 21) ? domain * domain * domain : domain;
  hash::KWiseFamily family(cube, cube, /*k=*/2);
  return run(g, [&](std::vector<std::uint64_t>& priority) {
    const auto fn = family.at(rng.next_u64() % family.seed_count());
    for (NodeId v = 0; v < priority.size(); ++v) priority[v] = fn.raw(v);
  });
}

}  // namespace dmpc::baselines
