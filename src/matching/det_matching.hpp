// Deterministic maximal matching in O(log n) MPC rounds (§3, Theorem 7).
//
// Per iteration (Algorithm 2):
//   1. select good nodes B and edge set E_0 (good_nodes.hpp, Corollary 8);
//   2. sparsify E_0 to E* so every degree is O(n^{4 delta})
//      (edge_sparsifier.hpp, Invariants (i)/(ii));
//   3. gather 2-hop neighborhoods of B-nodes in E* onto machines
//      (space O(n^{8 delta}) = O(n^eps) per machine, §3.3);
//   4. derandomize the Lemma-13 candidate matching: a pairwise hash h gives
//      each E* edge a priority z_e; E_h = local minima (a matching);
//      objective q(h) = sum of d(v) over matched B-nodes, with
//      E[q] >= (1/109) sum_{v in B} d(v) >= delta |E| / 218;
//   5. commit a seed meeting the threshold, add E_h to the output, delete
//      matched nodes — removing >= delta |E| / 536 edges.
//
// Loop until no edges remain: O(log n) iterations, O(1) charged MPC rounds
// each (all communication flows through Lemma-4 primitives).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "mpc/metrics.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/params.hpp"

namespace dmpc::obs {
class EventBus;
class RoundProfiler;
class TraceSession;
}

namespace dmpc::matching {

/// How the per-iteration selection seed is committed.
enum class SelectionMode {
  /// Batched threshold search over the family (production path; see
  /// derand/seed_search.hpp for the guarantee argument).
  kThresholdSearch,
  /// The textbook §2.4 method of conditional expectations with the
  /// exact-enumeration oracle. Exponential in the seed length, so only
  /// valid for small instances (the family size is checked); used to
  /// demonstrate the paper's §2.4 machinery end-to-end in the real
  /// pipeline.
  kConditionalExpectation,
};

struct DetMatchingConfig {
  /// Space exponent: S = space_headroom * n^eps words per machine.
  double eps = 0.5;
  /// 1/delta; 0 derives the paper's delta = eps/8 (inv_delta = 8/eps).
  std::uint32_t inv_delta = 0;
  /// Constant-factor headroom on S (the paper's O(n^{8 delta}) constants).
  double space_headroom = 8.0;
  /// Total-space constant: M = total_space_factor * (m + n) / S machines.
  double total_space_factor = 8.0;
  sparsify::SparsifyConfig sparsify;
  /// Selection threshold: q >= threshold_factor * sum_{v in B} d(v);
  /// the paper's Lemma 13 constant is 1/109.
  double threshold_factor = 1.0 / 109.0;
  /// Candidates per selection batch; the best candidate meeting the
  /// threshold is committed (better practical progress at the same cost).
  std::uint64_t selection_batch = 16;
  /// Seeds per threshold level before the threshold is halved (finite-n
  /// escape hatch; q >= 1 always holds so this terminates — see DESIGN.md).
  std::uint64_t trials_per_threshold = 256;
  std::uint64_t max_iterations = 100000;
  SelectionMode selection_mode = SelectionMode::kThresholdSearch;
  /// Host threads for per-machine local computation (0 = hardware
  /// concurrency, 1 = serial). Results are identical for every value; only
  /// the cluster-creating overload applies this (the cluster-taking overload
  /// uses the caller's executor).
  std::uint32_t threads = 1;
  /// Provisioning overrides on the auto-derived cluster geometry (only the
  /// cluster-creating overload applies them).
  mpc::ClusterOverrides cluster;
  /// Deterministic fault schedule + recovery policy (only the
  /// cluster-creating overload installs them; empty plan = fault-free).
  mpc::FaultPlan faults;
  mpc::RecoveryOptions recovery;
  /// Optional trace session (non-owning); spans and progress events are
  /// emitted when set. Null = tracing off (zero cost).
  obs::TraceSession* trace = nullptr;
  /// Optional round profiler (non-owning; null = off); attached to the
  /// cluster alongside `trace`.
  obs::RoundProfiler* profiler = nullptr;

  /// Optional progress-event bus (non-owning); forwarded to every cluster
  /// this pipeline creates.
  obs::EventBus* events = nullptr;
  /// Storage backend the input graph resides on (non-owning; null for plain
  /// in-memory graphs). Only the cluster-creating overload attaches it; the
  /// seam carries no model semantics (see mpc/storage.hpp).
  const mpc::Storage* storage = nullptr;
};

struct IterationReport {
  std::uint64_t iteration = 0;
  std::uint32_t cls = 0;                ///< Class i chosen by Corollary 8.
  graph::EdgeId edges_before = 0;
  graph::EdgeId edges_after = 0;
  std::uint64_t matched_pairs = 0;      ///< |E_h| committed this iteration.
  double progress_fraction = 0.0;       ///< Removed / edges_before.
  std::uint64_t selection_trials = 0;
  std::uint64_t sparsify_stages = 0;
  std::uint32_t estar_max_degree = 0;
  /// Worst measured §3.2 invariant (i) ratio across this iteration's stages
  /// (max of StageReport::invariant_degree_ratio; 0 when no stages ran).
  double invariant_degree_ratio = 0.0;
  /// Worst measured invariant (ii) ratio (min of
  /// StageReport::invariant_xv_ratio; 2.0 sentinel when unmeasured).
  double invariant_xv_ratio = 2.0;
  /// Largest window escalation any stage needed (0 when no stages ran).
  double window_multiplier = 0.0;
};

struct DetMatchingResult {
  std::vector<graph::EdgeId> matching;
  std::uint64_t iterations = 0;
  std::vector<IterationReport> reports;
  mpc::Metrics metrics;
  mpc::RecoveryStats recovery;  ///< All-zero for a fault-free run.
};

/// Creates the cluster per the config and runs the full loop.
DetMatchingResult det_maximal_matching(const graph::Graph& g,
                                       const DetMatchingConfig& config);

/// As above, against a caller-provided cluster (metrics accumulate there).
DetMatchingResult det_maximal_matching(mpc::Cluster& cluster,
                                       const graph::Graph& g,
                                       const DetMatchingConfig& config);

/// The cluster the config would build for graph size (n, m).
mpc::ClusterConfig cluster_config_for(const DetMatchingConfig& config,
                                      std::uint64_t n, std::uint64_t m);

/// Effective sparsification parameters for the config on an n-node graph.
sparsify::Params params_for(const DetMatchingConfig& config, std::uint64_t n);

namespace detail {

/// No E* edge is incident to the node.
inline constexpr std::uint32_t kNoPosition = 0xFFFFFFFFu;

/// Per-node argmins of the Lemma-13 priority: best[w] = the E*-position i
/// minimizing (priority[i], i) over the E* edges incident to w, or
/// kNoPosition. `estar` lists the E* edges' endpoints in ascending edge-id
/// order, so the position tie-break is the lemma's id tie-break. An edge is
/// a local minimum (in E_h) exactly when it is the argmin at both endpoints.
/// One pass, O(n + |E*|); `best` is resized to n.
void incidence_argmins(std::uint32_t n, const std::vector<graph::Edge>& estar,
                       const std::uint64_t* priority,
                       std::vector<std::uint32_t>& best);

/// E_h as ascending E*-positions: the edges with best[u] == best[v] == i.
std::vector<std::uint32_t> local_minima(std::uint32_t n,
                                        const std::vector<graph::Edge>& estar,
                                        const std::uint64_t* priority);

}  // namespace detail

}  // namespace dmpc::matching
