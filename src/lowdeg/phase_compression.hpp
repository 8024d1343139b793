// Phase compression (§5.2.2): derandomize l = Theta(delta log_Delta n) Luby
// phases in one O(1)-round stage.
//
// Given a distance-2 coloring chi with C = O(Delta^4) colors, a Luby phase
// only needs pairwise independence between 2-hop-distinct nodes, so phase i
// draws priorities z_v = h_i(chi(v)) from the small family H* : [C] -> [C]
// (O(log Delta)-bit seed). A whole stage is a *sequence* (h_1, ..., h_l);
// each node can simulate the full stage from its (2l)-hop ball, so all
// candidate sequences are evaluated in parallel and one Lemma-4 aggregation
// picks the sequence minimizing the residual edge count. The committed
// sequence is applied; every phase removes at least the global (z, id)
// minimum of the residual graph, so a stage always makes progress.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exec/parallel.hpp"
#include "graph/graph.hpp"
#include "hash/small_family.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::lowdeg {

/// Stage constants shared by lowdeg_mis and cclique::cc_mis.
inline constexpr std::uint64_t kSequenceBudget = 64;  ///< Sequences per stage.
inline constexpr std::uint64_t kPerPhaseCap = 1024;   ///< Per-phase seeds.
inline constexpr std::uint32_t kMaxPhases = 8;  ///< Upper clamp on l.
inline constexpr std::uint64_t kMaxStages = 100000;

struct StageOutcome {
  std::vector<graph::NodeId> independent;  ///< The committed candidate's set.
  graph::EdgeId edges_before = 0;
  graph::EdgeId edges_after = 0;
};

/// A stage's residual graph: the alive nodes with an alive neighbor,
/// ascending, and the alive edge count. Every alive edge joins two active
/// nodes, so a candidate's kernels and its edge count visit only these.
struct Residual {
  std::vector<graph::NodeId> active;
  graph::EdgeId edges = 0;
};

/// Build the residual in one node-parallel pass over `alive`; identical for
/// every executor.
Residual residual(const graph::Graph& g, const std::vector<bool>& alive,
                  const exec::Executor& ex);

/// Simulate one stage of `sequence.length()` Luby phases under sequence seed
/// `seq`. `live` starts as the stage's alive mask and `active` is its
/// residual's active list; each phase removes its winners' closed
/// neighborhoods from `live`. Phase i reads its priorities from a per-thread
/// table z[c] = h_i(c) over the colors [0, sequence.color_count()), which
/// must hold color[v] of every active v. Returns the joined independent set.
std::vector<graph::NodeId> simulate_stage(
    const graph::Graph& g, std::span<const graph::NodeId> active,
    std::vector<bool>& live, const std::vector<std::uint32_t>& color,
    const hash::FunctionSequence& sequence, std::uint64_t seq);

/// One candidate of a stage: called with `live` equal to the stage's alive
/// mask and the residual's `active` list, it returns the nodes it joins and
/// leaves in `live` the alive mask minus their closed neighborhoods. It must
/// be a pure function of t.
using CandidateFn = std::function<std::vector<graph::NodeId>(
    std::uint64_t t, std::span<const graph::NodeId> active,
    std::vector<bool>& live)>;

/// The best-of-candidates step: builds the stage's residual on `ex`
/// (`edges_before`), evaluates candidates t in [0, count) on `ex`
/// (count >= 1), each counting its alive edges over the active list only,
/// and commits the one leaving the fewest — ties commit the lowest t, for
/// every thread count — by removing its closed neighborhood from `alive`.
/// Charges nothing; an empty `independent` means no candidate made progress.
StageOutcome best_of_candidates(const graph::Graph& g,
                                std::vector<bool>& alive, std::uint64_t count,
                                const exec::Executor& ex,
                                const CandidateFn& candidate);

/// Derandomize one stage: evaluate up to kSequenceBudget candidate sequences
/// in O(1) charged rounds, commit the best, update `alive`, return the
/// outcome.
StageOutcome run_stage(mpc::Cluster& cluster, const graph::Graph& g,
                       std::vector<bool>& alive,
                       const std::vector<std::uint32_t>& color,
                       const hash::FunctionSequence& sequence);

}  // namespace dmpc::lowdeg
