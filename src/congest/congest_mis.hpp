// Deterministic MIS in the CONGEST model — the §6 extension.
//
// One Luby phase at a time: priorities come from the pairwise family over
// node ids (O(log n)-bit seed). The seed is committed by a best-of-K search
// coordinated over a BFS spanning tree: every node evaluates its local term
// for all K candidates, a pipelined converge-cast aggregates the K objective
// values (depth + K rounds up, the same down), and the root broadcasts the
// winner. Each phase therefore costs O(D + K) rounds, for D = BFS depth —
// the CONGEST analogue of the paper's O(1)-round MPC steps, with the tree
// depth playing the role the fan-in-S aggregation plays in MPC.
//
// The randomized baseline (luby_mis_congest) spends O(1) rounds per phase;
// the deterministic overhead is exactly the O(D + K) coordination — which
// experiment E15 measures.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "mpc/metrics.hpp"

namespace dmpc::congest {

inline constexpr std::uint64_t kCandidatesPerPhase = 16;  ///< K.
inline constexpr std::uint64_t kMaxPhases = 100000;

struct CongestMisResult {
  std::vector<bool> in_set;
  std::uint64_t phases = 0;
  std::uint32_t bfs_depth = 0;
  mpc::Metrics metrics;
};

/// Deterministic CONGEST MIS (per-phase derandomized Luby).
CongestMisResult congest_mis(const graph::Graph& g);

/// Randomized baseline: classic Luby, one O(1)-round phase each.
CongestMisResult luby_mis_congest(const graph::Graph& g, std::uint64_t seed);

}  // namespace dmpc::congest
