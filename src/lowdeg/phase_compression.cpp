#include "lowdeg/phase_compression.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dmpc::lowdeg {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

std::vector<NodeId> simulate_stage(const Graph& g,
                                   const std::vector<bool>& alive,
                                   const std::vector<std::uint32_t>& color,
                                   const hash::FunctionSequence& sequence,
                                   std::uint64_t seq) {
  std::vector<bool> live = alive;
  std::vector<NodeId> joined;
  std::vector<std::uint64_t> z(g.num_nodes());
  for (unsigned phase = 0; phase < sequence.length(); ++phase) {
    const auto fn = sequence.phase_fn(seq, phase);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (live[v]) z[v] = fn.raw(color[v]);
    }
    // Colors are 2-hop distinct, so adjacent nodes have distinct colors but
    // hashes may still collide; the kernel breaks ties by id.
    const auto won = graph::winners(g, live, z);
    if (won.empty()) break;  // residual graph has no edges
    joined.insert(joined.end(), won.begin(), won.end());
    graph::remove_closed(g, won, live);
  }
  return joined;
}

StageOutcome best_of_candidates(
    const Graph& g, std::vector<bool>& alive, std::uint64_t count,
    const exec::Executor& ex,
    const std::function<std::vector<NodeId>(std::uint64_t)>& winners_for) {
  StageOutcome outcome;
  outcome.edges_before = graph::alive_edge_count(g, alive, ex);
  DMPC_CHECK(outcome.edges_before > 0);
  DMPC_CHECK(count > 0);

  // Candidates are independent and pure — evaluate them host-parallel, then
  // pick the minimizer with a serial strict-< scan.
  struct Candidate {
    EdgeId after = 0;
    std::vector<NodeId> joined;
  };
  std::vector<Candidate> candidates(count);
  ex.for_each(0, count, [&](std::uint64_t t) {
    Candidate& cand = candidates[t];
    cand.joined = winners_for(t);
    std::vector<bool> live = alive;
    graph::remove_closed(g, cand.joined, live);
    cand.after = graph::alive_edge_count(g, live);
  });
  std::uint64_t best = 0;
  for (std::uint64_t t = 1; t < count; ++t) {
    if (candidates[t].after < candidates[best].after) best = t;
  }
  outcome.independent = std::move(candidates[best].joined);
  outcome.edges_after = candidates[best].after;
  graph::remove_closed(g, outcome.independent, alive);
  return outcome;
}

StageOutcome run_stage(mpc::Cluster& cluster, const Graph& g,
                       std::vector<bool>& alive,
                       const std::vector<std::uint32_t>& color,
                       const hash::FunctionSequence& sequence) {
  const std::uint64_t limit =
      std::min<std::uint64_t>(kSequenceBudget, sequence.sequence_count());
  // All candidate sequences are simulated locally from the gathered balls;
  // one aggregation (fan-in-S tree, width = limit) picks the minimizer and
  // one broadcast announces it — O(1) charged rounds per stage.
  const std::uint64_t depth =
      cluster.tree_depth(std::max<std::uint64_t>(g.num_nodes(), 2));
  cluster.check_load(limit, "lowdeg/stage: sequence table", "lowdeg/stage");
  cluster.charge("lowdeg/stage", 2 * depth + 1, limit * cluster.machines());

  auto outcome = best_of_candidates(
      g, alive, limit, cluster.executor(), [&](std::uint64_t t) {
        return simulate_stage(g, alive, color, sequence, sequence.diverse(t));
      });
  DMPC_CHECK_MSG(!outcome.independent.empty(),
                 "phase compression stage made no progress");
  // One more round: winners notify their r-hop balls (§5.2.2, "maintaining
  // the r-th hop neighborhood").
  cluster.charge("lowdeg/ball_update", 1, 0);
  DMPC_CHECK(outcome.edges_after < outcome.edges_before);
  return outcome;
}

}  // namespace dmpc::lowdeg
