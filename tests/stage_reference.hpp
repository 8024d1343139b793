// Test-local reference for one phase-compression stage, simulated on the
// full graph: per-node hashes fn.raw(color[v]) into an n-sized array,
// graph::winners over all n nodes, and O(m) alive-edge recounts. The library
// (lowdeg/phase_compression.hpp) works on the stage's residual instead: a
// per-color hash table, kernels over the active nodes only, and one count
// over them per candidate. Tests run both and compare every output.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/parallel.hpp"
#include "graph/graph.hpp"
#include "hash/small_family.hpp"
#include "lowdeg/phase_compression.hpp"

namespace dmpc::testref {

inline std::vector<graph::NodeId> simulate_stage(
    const graph::Graph& g, const std::vector<bool>& alive,
    const std::vector<std::uint32_t>& color,
    const hash::FunctionSequence& sequence, std::uint64_t seq) {
  std::vector<bool> live = alive;
  std::vector<graph::NodeId> joined;
  std::vector<std::uint64_t> z(g.num_nodes());
  for (unsigned phase = 0; phase < sequence.length(); ++phase) {
    const auto fn = sequence.phase_fn(seq, phase);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (live[v]) z[v] = fn.raw(color[v]);
    }
    const auto won = graph::winners(g, live, z);
    if (won.empty()) break;
    joined.insert(joined.end(), won.begin(), won.end());
    graph::remove_closed(g, won, live);
  }
  return joined;
}

/// Serial best-of-candidates over reference stages: the candidate leaving
/// the fewest alive edges, lowest t on ties, committed into `alive`.
inline lowdeg::StageOutcome best_of_candidates(
    const graph::Graph& g, std::vector<bool>& alive, std::uint64_t count,
    const std::vector<std::uint32_t>& color,
    const hash::FunctionSequence& sequence) {
  lowdeg::StageOutcome outcome;
  outcome.edges_before =
      graph::alive_edge_count(g, alive, exec::Executor::serial());
  bool first = true;
  for (std::uint64_t t = 0; t < count; ++t) {
    auto joined =
        simulate_stage(g, alive, color, sequence, sequence.diverse(t));
    std::vector<bool> live = alive;
    graph::remove_closed(g, joined, live);
    const graph::EdgeId after =
        graph::alive_edge_count(g, live, exec::Executor::serial());
    if (first || after < outcome.edges_after) {
      outcome.independent = std::move(joined);
      outcome.edges_after = after;
      first = false;
    }
  }
  graph::remove_closed(g, outcome.independent, alive);
  return outcome;
}

}  // namespace dmpc::testref
