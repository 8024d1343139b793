#include "mis/det_mis.hpp"

#include <algorithm>
#include <optional>

#include "derand/seed_search.hpp"
#include "graph/validate.hpp"
#include "hash/kwise.hpp"
#include "mpc/distribution.hpp"
#include "obs/trace.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/node_sparsifier.hpp"
#include "support/check.hpp"

namespace dmpc::mis {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

/// Lemma-21 selection objective. For seed s: z_v = h_s(v) for v in Q';
/// I_h = local minima within the induced subgraph on Q' (ties by id).
/// Value = sum of alive-degrees of B-nodes whose N_v window meets I_h.
//
// Range form: the Q' node list (widened to the 64-bit hash domain) is the
// bound point universe, so every priority z_v is computed once per seed by
// the lane-parallel kernel; the local-min test reads neighbors' priorities
// by Q' position instead of re-evaluating the polynomial per adjacency (the
// selection hotspot). The I_h bitmap is a per-seed prepass into thread-local
// scratch.
class MisSelectionObjective final : public derand::RangeObjective {
 public:
  MisSelectionObjective(const Graph& g, const hash::KWiseFamily& family,
                        const std::vector<NodeId>& q_nodes,
                        const std::vector<std::vector<NodeId>>& q_adj,
                        const std::vector<std::vector<NodeId>>& nv,
                        const std::vector<NodeId>& b_nodes,
                        const std::vector<std::uint32_t>& alive_degree)
      : g_(&g),
        q_nodes_(&q_nodes),
        q_adj_(&q_adj),
        nv_(&nv),
        b_nodes_(&b_nodes),
        alive_degree_(&alive_degree),
        points_(q_nodes.begin(), q_nodes.end()),
        node_pos_(g.num_nodes(), 0) {
    for (std::size_t i = 0; i < q_nodes.size(); ++i) {
      node_pos_[q_nodes[i]] = i;
    }
    bind_points(family, points_.data(), points_.size());
  }

  std::vector<NodeId> independent_set_for(std::uint64_t seed) const {
    const auto fn = family().at(seed);
    std::vector<std::uint64_t> values(points_.size());
    fn.raw_many(points_.data(), points_.size(), values.data());
    std::vector<NodeId> set;
    for (std::size_t i = 0; i < q_nodes_->size(); ++i) {
      if (is_local_min(i, values.data())) set.push_back((*q_nodes_)[i]);
    }
    return set;
  }

  void prepare_seed(std::uint64_t /*seed*/,
                    const std::uint64_t* values) const override {
    std::vector<std::uint8_t>& in_ih = in_ih_scratch();
    in_ih.assign(g_->num_nodes(), 0);
    for (std::size_t i = 0; i < q_nodes_->size(); ++i) {
      if (is_local_min(i, values)) in_ih[(*q_nodes_)[i]] = 1;
    }
  }

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t /*seed*/,
                          const std::uint64_t* /*values*/) const override {
    const std::vector<std::uint8_t>& in_ih = in_ih_scratch();
    double q = 0.0;
    for (std::uint64_t idx = range_begin; idx < range_end; ++idx) {
      const NodeId v = (*b_nodes_)[idx];
      for (NodeId u : (*nv_)[v]) {
        if (in_ih[u] != 0) {
          q += static_cast<double>((*alive_degree_)[v]);
          break;
        }
      }
    }
    return q;
  }

  std::uint64_t range_count() const override { return b_nodes_->size(); }
  std::uint64_t term_count() const override { return b_nodes_->size(); }

 private:
  static std::vector<std::uint8_t>& in_ih_scratch() {
    thread_local std::vector<std::uint8_t> in_ih;
    return in_ih;
  }

  /// Local-min test over precomputed priorities; `i` is the Q' position of
  /// the node (identical comparisons to the former per-node raw()).
  bool is_local_min(std::size_t i, const std::uint64_t* values) const {
    const NodeId v = (*q_nodes_)[i];
    const std::uint64_t zv = values[i];
    for (NodeId u : (*q_adj_)[v]) {
      const std::uint64_t zu = values[node_pos_[u]];
      if (zu < zv || (zu == zv && u < v)) return false;
    }
    return true;
  }

  const Graph* g_;
  const std::vector<NodeId>* q_nodes_;
  const std::vector<std::vector<NodeId>>* q_adj_;
  const std::vector<std::vector<NodeId>>* nv_;
  const std::vector<NodeId>* b_nodes_;
  const std::vector<std::uint32_t>* alive_degree_;
  std::vector<std::uint64_t> points_;  ///< q_nodes widened to the hash domain
  std::vector<std::size_t> node_pos_;  ///< NodeId -> position in q_nodes
};

}  // namespace

DetMisResult det_mis(const Graph& g, const DetMisConfig& config) {
  mpc::Cluster cluster(
      matching::cluster_config_for(config, g.num_nodes(), g.num_edges()),
      config.setup);
  return det_mis(cluster, g, config);
}

DetMisResult det_mis(mpc::Cluster& cluster, const Graph& g,
                     const DetMisConfig& config) {
  obs::Span pipeline_span(cluster.trace(), "mis/pipeline");
  const sparsify::Params params = matching::params_for(config, g.num_nodes());
  DetMisResult result;
  result.in_set.assign(g.num_nodes(), false);
  std::vector<bool> alive(g.num_nodes(), true);
  // Distributed state a phase checkpoint persists: the edge list plus the
  // per-node alive/in-set flags.
  const std::uint64_t phase_words = 2 * g.num_edges() + 2 * g.num_nodes();

  auto absorb_isolated = [&]() {
    const auto deg = graph::alive_degrees(g, alive, cluster.executor());
    std::uint64_t added = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (alive[v] && deg[v] == 0) {
        result.in_set[v] = true;
        alive[v] = false;
        ++added;
      }
    }
    return added;
  };

  while (graph::alive_edge_count(g, alive, cluster.executor()) > 0) {
    DMPC_CHECK_MSG(result.iterations < config.max_iterations,
                   "MIS iteration cap exceeded");
    ++result.iterations;
    obs::Span iter_span(cluster.trace(), "mis/iteration");
    iter_span.arg("iteration", result.iterations);
    MisIterationReport report;
    report.iteration = result.iterations;
    report.isolated_added = absorb_isolated();

    // 2. Good nodes (Corollary 16).
    cluster.mark_phase("mis/phase/good_nodes", phase_words);
    const auto good = [&] {
      obs::Span span(cluster.trace(), "mis/phase/good_nodes");
      return sparsify::select_mis_good_set(cluster, params, g, alive);
    }();
    report.cls = good.cls;
    report.edges_before = good.alive_edges;

    // 3. Sparsify Q_0 -> Q' (§4.2).
    cluster.mark_phase("mis/phase/sparsify", phase_words);
    const auto sparse = [&] {
      obs::Span span(cluster.trace(), "mis/phase/sparsify");
      return sparsify::sparsify_nodes(cluster, params, g, alive, good,
                                      config.sparsify);
    }();
    report.sparsify_stages = sparse.stages.size();
    report.qprime_max_degree = sparse.max_q_degree;
    const auto worst = sparsify::worst_invariants(sparse.stages);
    report.invariant_degree_ratio = worst.degree_ratio;
    report.invariant_xv_ratio = worst.xv_ratio;
    report.window_multiplier = worst.window_multiplier;

    // 4. Build Q' structures and the N_v windows; charge the gather.
    // (optional so the span can close before the derand phase opens while
    // the gathered structures stay in scope)
    cluster.mark_phase("mis/phase/gather", phase_words);
    std::optional<obs::Span> gather_span;
    gather_span.emplace(cluster.trace(), "mis/phase/gather");
    std::vector<NodeId> q_nodes;
    std::vector<std::vector<NodeId>> q_adj(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!alive[v] || !sparse.in_Qprime[v]) continue;
      q_nodes.push_back(v);
      for (NodeId u : g.neighbors(v)) {
        if (alive[u] && sparse.in_Qprime[u]) q_adj[v].push_back(u);
      }
    }
    const auto alive_degree = graph::alive_degrees(g, alive, cluster.executor());
    std::vector<NodeId> b_nodes;
    std::vector<std::vector<NodeId>> nv(g.num_nodes());
    {
      const std::uint64_t window = params.group_size();
      std::vector<std::uint64_t> two_hop(g.num_nodes(), 0);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!alive[v] || !good.in_B[v]) continue;
        b_nodes.push_back(v);
        for (NodeId u : g.neighbors(v)) {
          if (!alive[u] || !sparse.in_Qprime[u]) continue;
          nv[v].push_back(u);
          if (nv[v].size() >= window) break;  // arbitrary n^{4 delta} subset
        }
        std::uint64_t words = nv[v].size();
        for (NodeId u : nv[v]) words += q_adj[u].size();
        two_hop[v] = words;
      }
      mpc::charge_two_hop_gather(cluster, two_hop, good.in_B, "mis/gather");
    }
    gather_span.reset();

    // 5-6. Derandomized Lemma-21 selection.
    cluster.mark_phase("mis/phase/derand", phase_words);
    std::optional<obs::Span> derand_span;
    derand_span.emplace(cluster.trace(), "mis/phase/derand");
    const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_nodes());
    hash::KWiseFamily family(domain, domain, /*k=*/2);
    MisSelectionObjective objective(g, family, q_nodes, q_adj, nv, b_nodes,
                                    alive_degree);
    derand::SelectionOptions selection;
    selection.label = "mis/selection";
    selection.mode = config.selection_mode;
    selection.threshold = kLemma21Threshold * params.delta() *
                          static_cast<double>(good.b_degree_mass);
    selection.batch = config.selection_batch;
    selection.salt = result.iterations;
    // One pool task per kBatchChunk seeds, so a default-width batch runs on
    // this thread: the MIS seeds are a small share of the run, and per-seed
    // tasks made the sparse-gnm MIS wall time follow how many cores the
    // host had idle (bench/perf mis_gnm_sparse). Wider batches still spread
    // chunk-wise.
    selection.grain = derand::kBatchChunk;
    const auto committed =
        derand::select_seed(cluster, objective, family, selection);
    report.selection_trials = committed.trials;
    if (derand_span->active()) {
      derand_span->arg("candidate_seeds", committed.trials);
      derand_span->arg("committed_seed", committed.seed);
    }
    derand_span.reset();

    cluster.mark_phase("mis/phase/commit", phase_words);
    obs::Span commit_span(cluster.trace(), "mis/phase/commit");
    const auto independent = objective.independent_set_for(committed.seed);
    DMPC_CHECK_MSG(!independent.empty(), "empty committed independent set");
    report.independent_added = independent.size();
    for (NodeId v : independent) {
      DMPC_CHECK(alive[v]);
      result.in_set[v] = true;
      alive[v] = false;
      for (NodeId u : g.neighbors(v)) alive[u] = false;
    }

    report.edges_after = graph::alive_edge_count(g, alive, cluster.executor());
    report.progress_fraction =
        static_cast<double>(report.edges_before - report.edges_after) /
        static_cast<double>(report.edges_before);
    // Lemma-12 progress series: one structured event per iteration (the
    // machine-readable successor of the old free-form debug line).
    if (auto* trace = cluster.trace(); obs::enabled(trace)) {
      trace->instant(
          "mis/progress",
          {obs::arg("iteration", report.iteration),
           obs::arg("edges_remaining",
                    static_cast<std::uint64_t>(report.edges_after)),
           obs::arg("good_node_fraction",
                    static_cast<double>(good.b_degree_mass) /
                        static_cast<double>(2 * good.alive_edges)),
           obs::arg("independent_added", report.independent_added),
           obs::arg("progress_fraction", report.progress_fraction)});
    }
    if (iter_span.active()) {
      iter_span.arg("edges_before", static_cast<std::uint64_t>(report.edges_before));
      iter_span.arg("edges_after", static_cast<std::uint64_t>(report.edges_after));
      iter_span.arg("class", static_cast<std::uint64_t>(report.cls));
    }
    result.reports.push_back(report);
  }
  absorb_isolated();

  DMPC_CHECK_MSG(graph::is_maximal_independent_set(g, result.in_set),
                 "det_mis produced a non-maximal independent set");
  result.metrics = cluster.metrics();
  result.recovery = cluster.recovery_stats();
  return result;
}

}  // namespace dmpc::mis
