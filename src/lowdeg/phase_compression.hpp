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

/// Simulate one stage of `phases` Luby phases under sequence seed `seq`,
/// returning the joined independent set (does not modify `alive`).
std::vector<graph::NodeId> simulate_stage(
    const graph::Graph& g, const std::vector<bool>& alive,
    const std::vector<std::uint32_t>& color,
    const hash::FunctionSequence& sequence, std::uint64_t seq);

/// The best-of-candidates step: evaluates candidates t in [0, count) on `ex`
/// (count >= 1; `winners_for(t)` must be pure), commits the one leaving the
/// fewest alive edges — ties commit the lowest t, for every thread count —
/// by removing its closed neighborhood from `alive`. Charges nothing; an
/// empty `independent` means no candidate made progress.
StageOutcome best_of_candidates(
    const graph::Graph& g, std::vector<bool>& alive, std::uint64_t count,
    const exec::Executor& ex,
    const std::function<std::vector<graph::NodeId>(std::uint64_t)>&
        winners_for);

/// Derandomize one stage: evaluate up to kSequenceBudget candidate sequences
/// in O(1) charged rounds, commit the best, update `alive`, return the
/// outcome.
StageOutcome run_stage(mpc::Cluster& cluster, const graph::Graph& g,
                       std::vector<bool>& alive,
                       const std::vector<std::uint32_t>& color,
                       const hash::FunctionSequence& sequence);

}  // namespace dmpc::lowdeg
