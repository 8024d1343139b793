#include "lowdeg/phase_compression.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace dmpc::lowdeg {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

/// Nodes per chunk of the residual pass.
constexpr std::uint64_t kResidualGrain = 4096;

/// Edges with both endpoints live, for `live` within the alive mask whose
/// residual has `active`: every such edge joins two active nodes, so each
/// is counted once, at its lower endpoint.
EdgeId live_edge_count(const Graph& g, std::span<const NodeId> active,
                       const std::vector<bool>& live) {
  EdgeId count = 0;
  for (const NodeId v : active) {
    if (!live[v]) continue;
    for (NodeId u : g.neighbors(v)) {
      if (u > v && live[u]) ++count;
    }
  }
  return count;
}

}  // namespace

Residual residual(const Graph& g, const std::vector<bool>& alive,
                  const exec::Executor& ex) {
  DMPC_CHECK(alive.size() == g.num_nodes());
  const std::uint64_t n = g.num_nodes();
  std::vector<Residual> parts((n + kResidualGrain - 1) / kResidualGrain);
  ex.for_each(0, parts.size(), [&](std::uint64_t c) {
    Residual& part = parts[c];
    const std::uint64_t end = std::min(n, (c + 1) * kResidualGrain);
    for (auto v = static_cast<NodeId>(c * kResidualGrain); v < end; ++v) {
      if (!alive[v]) continue;
      bool has_alive_neighbor = false;
      for (NodeId u : g.neighbors(v)) {
        if (!alive[u]) continue;
        has_alive_neighbor = true;
        if (u > v) ++part.edges;
      }
      if (has_alive_neighbor) part.active.push_back(v);
    }
  });
  Residual out;
  std::uint64_t total = 0;
  for (const Residual& part : parts) total += part.active.size();
  out.active.reserve(total);
  for (const Residual& part : parts) {
    out.active.insert(out.active.end(), part.active.begin(),
                      part.active.end());
    out.edges += part.edges;
  }
  return out;
}

std::vector<NodeId> simulate_stage(const Graph& g,
                                   std::span<const NodeId> active,
                                   std::vector<bool>& live,
                                   const std::vector<std::uint32_t>& color,
                                   const hash::FunctionSequence& sequence,
                                   std::uint64_t seq) {
  // The per-thread color table: points 0..C-1 and one phase's hashes of
  // them. Candidates run on pool threads, so each thread fills its own.
  thread_local std::vector<std::uint64_t> points;
  thread_local std::vector<std::uint64_t> z;
  const std::uint64_t colors = sequence.color_count();
  if (points.size() < colors) {
    points.resize(colors);
    std::iota(points.begin(), points.end(), std::uint64_t{0});
    z.resize(colors);
  }

  std::vector<NodeId> joined;
  for (unsigned phase = 0; phase < sequence.length(); ++phase) {
    sequence.phase_fn(seq, phase).raw_many(points.data(), colors, z.data());
    // Colors are 2-hop distinct, so adjacent nodes have distinct colors but
    // hashes may still collide; the kernel breaks ties by id.
    const auto won = graph::winners(
        g, active, live, [&](NodeId v) { return z[color[v]]; });
    if (won.empty()) break;  // residual graph has no edges
    joined.insert(joined.end(), won.begin(), won.end());
    graph::remove_closed(g, won, live);
  }
  return joined;
}

StageOutcome best_of_candidates(const Graph& g, std::vector<bool>& alive,
                                std::uint64_t count, const exec::Executor& ex,
                                const CandidateFn& candidate) {
  StageOutcome outcome;
  const Residual stage = residual(g, alive, ex);
  outcome.edges_before = stage.edges;
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
    std::vector<bool> live = alive;
    cand.joined = candidate(t, stage.active, live);
    cand.after = live_edge_count(g, stage.active, live);
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
      g, alive, limit, cluster.executor(),
      [&](std::uint64_t t, std::span<const NodeId> active,
          std::vector<bool>& live) {
        return simulate_stage(g, active, live, color, sequence,
                              sequence.diverse(t));
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
