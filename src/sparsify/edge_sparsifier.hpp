// Deterministic edge sparsification (§3.2): from E_0 to E* in O(1) stages.
//
// Stage j sub-samples E_{j-1} at rate n^{-delta} using a c-wise independent
// hash on edge ids, derandomized so that every "machine" (a chunk of one
// node's incident edge list, group size n^{4 delta}) is *good*: its kept
// count lands within a concentration window around the expectation
// (paper: e_x n^{-delta} ± n^{0.1 delta} sqrt(e_x)). Type-A machines
// (all incident edges) make the degree upper bound (Invariant (i),
// Lemma 10); type-B machines (the X(v) lists of good nodes) make the
// lower bound (Invariant (ii), Lemma 11). After max(0, i-4) stages every
// degree in E* is O(n^{4 delta}) and 2-hop neighborhoods fit on a machine.
//
// Finite-n adaptation (documented in DESIGN.md §2.3): the paper's window is
// sized for asymptotic union bounds. We start from the paper's formula
// scaled by kWindowSlack and, if no seed in the search budget makes all
// machines good (possible only at small n where the window is narrower than
// the binomial spread), deterministically double the window and retry. The
// committed seed always makes every machine good *for the window actually
// used*, which is what the Lemma 10/11 algebra consumes; the per-stage
// report records the window so experiments (E4) can compare measured
// degrees against the paper-form bound.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/params.hpp"

namespace dmpc::sparsify {

/// The finite-n window schedule of both sparsifiers (DESIGN.md §2.3):
/// windows start at kWindowSlack times the paper's width and double at most
/// kMaxEscalations times, each width getting kTrialsPerWindow seeds; at
/// most kExtraStageCap extra stages run while degrees exceed the cap.
inline constexpr double kWindowSlack = 3.0;
inline constexpr std::uint32_t kMaxEscalations = 16;
inline constexpr std::uint64_t kTrialsPerWindow = 64;
inline constexpr std::uint32_t kExtraStageCap = 16;

struct SparsifyConfig {
  unsigned hash_k = 4;  ///< Independence degree c.
};

struct StageReport {
  std::uint32_t stage = 0;           ///< 1-based stage index j.
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;          ///< Seeds evaluated in this stage.
  double window_multiplier = 1.0;    ///< Final slack multiplier used.
  std::uint64_t machines = 0;        ///< Chunks checked for goodness.
  graph::EdgeId edges_before = 0;
  graph::EdgeId edges_after = 0;
  std::uint32_t max_degree_after = 0;
  /// Measured invariant (i) head-room: max_v d_{E_j}(v) /
  /// (n^{-j delta} d_{E_0}(v) + n^{3 delta}).
  double invariant_degree_ratio = 0.0;
  /// Measured invariant (ii): min_{v in B, X(v) nonempty}
  /// |X(v) ∩ E_j| / (n^{-j delta} |X(v)|).
  double invariant_xv_ratio = 0.0;
};

/// The worst invariant measurements across one iteration's stages. The
/// defaults are what an iteration without stages reports.
struct StageInvariants {
  double degree_ratio = 0.0;       ///< Max of invariant_degree_ratio.
  double xv_ratio = 2.0;           ///< Min of invariant_xv_ratio.
  double window_multiplier = 0.0;  ///< Max of window_multiplier.
};

StageInvariants worst_invariants(const std::vector<StageReport>& stages);

struct EdgeSparsifyResult {
  std::vector<bool> in_Estar;        ///< Edge mask of E* over g.num_edges().
  std::vector<StageReport> stages;
  std::uint32_t max_degree = 0;      ///< Max degree within E*.
  /// X(v) ∩ E* lists for v in B (aligned with the good set's xv).
  std::vector<std::vector<graph::EdgeId>> xv_star;
};

/// Run §3.2 on the chosen good set. `good.in_E0`/`good.xv` define E_0; the
/// result's mask is a subset of it.
EdgeSparsifyResult sparsify_edges(mpc::Cluster& cluster, const Params& params,
                                  const graph::Graph& g,
                                  const MatchingGoodSet& good,
                                  const SparsifyConfig& config);

}  // namespace dmpc::sparsify
