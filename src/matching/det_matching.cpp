#include "matching/det_matching.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "derand/cond_expect.hpp"
#include "derand/seed_search.hpp"
#include "graph/validate.hpp"
#include "hash/kwise.hpp"
#include "mpc/distribution.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sparsify/good_nodes.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace dmpc::matching {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

/// True when E*-position i (endpoints e) is the argmin at both endpoints,
/// i.e. a Lemma-13 local minimum.
bool argmin_at_both(const std::vector<std::uint32_t>& best, const Edge& e,
                    std::uint32_t i) {
  return best[e.u] == i && best[e.v] == i;
}

/// The Lemma-13 selection objective. For hash seed s, every E* edge gets
/// priority z_e = h_s(e); E_h = edges that are local minima among their E*
/// neighbors (ties by id) — always a matching. Value = sum of alive-degrees
/// of B-nodes covered by E_h.
//
// Range form: the E* edge list is the bound point universe, so every
// priority z_e is computed once per seed by the lane-parallel kernel.
// prepare_seed then takes the per-node argmins in one O(n + |E*|) pass
// (detail::incidence_argmins) into thread-local scratch. A node is covered
// by E_h exactly when its argmin edge is also the argmin at the other
// endpoint, so accumulate_terms reads coverage straight off the argmins.
// matching_for runs the same routine: the committed matching is by
// construction the one that was scored.
class SelectionObjective final : public derand::RangeObjective {
 public:
  SelectionObjective(const Graph& g, const hash::KWiseFamily& family,
                     const std::vector<EdgeId>& estar_edges,
                     const std::vector<bool>& in_B,
                     const std::vector<std::uint32_t>& alive_degree)
      : n_(g.num_nodes()),
        estar_edges_(&estar_edges),
        in_B_(&in_B),
        alive_degree_(&alive_degree) {
    DMPC_CHECK_MSG(estar_edges.size() < detail::kNoPosition,
                   "E* exceeds 32-bit positions");
    estar_ends_.reserve(estar_edges.size());
    for (EdgeId e : estar_edges) estar_ends_.push_back(g.edge(e));
    bind_points(family, estar_edges.data(), estar_edges.size());
  }

  /// The committed matching for a seed (used after the search picks one).
  std::vector<EdgeId> matching_for(std::uint64_t seed) const {
    const auto fn = family().at(seed);
    std::vector<std::uint64_t> values(estar_edges_->size());
    fn.raw_many(estar_edges_->data(), estar_edges_->size(), values.data());
    std::vector<EdgeId> matched;
    for (std::uint32_t i :
         detail::local_minima(n_, estar_ends_, values.data())) {
      matched.push_back((*estar_edges_)[i]);
    }
    return matched;
  }

  void prepare_seed(std::uint64_t /*seed*/,
                    const std::uint64_t* values) const override {
    detail::incidence_argmins(n_, estar_ends_, values, best_scratch());
  }

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t /*seed*/,
                          const std::uint64_t* /*values*/) const override {
    const std::vector<std::uint32_t>& best = best_scratch();
    double q = 0.0;
    for (std::uint64_t v = range_begin; v < range_end; ++v) {
      const std::uint32_t i = best[v];
      if ((*in_B_)[v] && i != detail::kNoPosition &&
          argmin_at_both(best, estar_ends_[i], i)) {
        q += static_cast<double>((*alive_degree_)[v]);
      }
    }
    return q;
  }

  /// Accumulable ranges partition the node set; term_count() stays the E*
  /// edge count — the model aggregation size the round charges depend on.
  std::uint64_t range_count() const override { return n_; }
  std::uint64_t term_count() const override { return estar_edges_->size(); }

 private:
  static std::vector<std::uint32_t>& best_scratch() {
    thread_local std::vector<std::uint32_t> best;
    return best;
  }

  std::uint32_t n_;
  const std::vector<EdgeId>* estar_edges_;
  const std::vector<bool>* in_B_;
  const std::vector<std::uint32_t>* alive_degree_;
  std::vector<Edge> estar_ends_;  ///< E*-position -> endpoints
};

/// Batched best-of search with threshold halving (header comment in
/// det_matching.hpp explains the finite-n rationale).
derand::SearchResult select_with_threshold(mpc::Cluster& cluster,
                                           const SelectionObjective& objective,
                                           std::uint64_t seed_count,
                                           double threshold, std::uint64_t salt,
                                           const DetMatchingConfig& config) {
  derand::SearchResult best;
  obs::HostScope host_scope("derand/selection", cluster.trace());
  obs::Span span(cluster.trace(), "matching/selection");
  bool have = false;
  std::uint64_t evaluated = 0;
  double t = threshold;
  derand::BatchStats batch_stats;
  // Decorrelate committed priority functions across iterations: trial k of
  // iteration `salt` evaluates a stride-scrambled walk over the family
  // (same rationale as derand::SearchOptions::seed_stride).
  auto seed_at = [&](std::uint64_t k) {
    const __uint128_t pos =
        static_cast<__uint128_t>(k) * 0xBF58476D1CE4E5B9ULL +
        salt * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::uint64_t>(pos % seed_count);
  };
  while (true) {
    const std::uint64_t budget =
        std::min<std::uint64_t>(config.selection_batch, seed_count - evaluated);
    DMPC_CHECK_MSG(budget > 0, "selection seed space exhausted");
    const std::uint64_t depth = cluster.tree_depth(
        std::max<std::uint64_t>(objective.term_count(), 2));
    cluster.charge_recoverable(2 * depth, "matching/selection");
    cluster.metrics().add_communication(budget * cluster.machines(),
                                        "matching/selection");
    // Host-parallel batch evaluation through the range oracle (the
    // objective is pure), then a serial lowest-trial-first scan with a
    // strict improvement test — the committed seed is identical for every
    // thread count and dispatch path.
    std::vector<std::uint64_t> seeds(budget);
    for (std::uint64_t i = 0; i < budget; ++i) {
      seeds[i] = seed_at(evaluated + i);
    }
    std::vector<double> values(budget, 0.0);
    batch_stats += derand::batch_evaluate(cluster.executor(), objective,
                                          seeds.data(), budget, values.data());
    for (std::uint64_t k = evaluated; k < evaluated + budget; ++k) {
      const double value = values[k - evaluated];
      if (!have || value > best.value) {
        have = true;
        best.seed = seed_at(k);
        best.value = value;
      }
    }
    evaluated += budget;
    best.trials = evaluated;
    if (have && best.value >= t) {
      span.arg("candidate_seeds", best.trials);
      span.arg("committed_seed", best.seed);
      derand::record_batch_stats(batch_stats);
      return best;
    }
    if (evaluated % config.trials_per_threshold == 0) t /= 2.0;
  }
}

}  // namespace

sparsify::Params params_for(const DetMatchingConfig& config, std::uint64_t n) {
  return sparsify::Params::for_eps(n, config.eps, config.inv_delta);
}

mpc::ClusterConfig sparsification_cluster_config(double eps,
                                                 double space_headroom,
                                                 double total_space_factor,
                                                 std::uint64_t n,
                                                 std::uint64_t m) {
  mpc::ClusterConfig cc;
  cc.machine_space = std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(
              space_headroom *
              std::pow(static_cast<double>(std::max<std::uint64_t>(n, 2)),
                       eps)));
  const auto total = static_cast<std::uint64_t>(
      total_space_factor * static_cast<double>(m + n + 2));
  cc.num_machines = ceil_div(total, cc.machine_space) + 1;
  return cc;
}

mpc::ClusterConfig cluster_config_for(const DetMatchingConfig& config,
                                      std::uint64_t n, std::uint64_t m) {
  return sparsification_cluster_config(
      config.eps, config.space_headroom, config.total_space_factor, n, m);
}

namespace detail {

void incidence_argmins(std::uint32_t n, const std::vector<Edge>& estar,
                       const std::uint64_t* priority,
                       std::vector<std::uint32_t>& best) {
  best.assign(n, kNoPosition);
  const auto offer = [&](NodeId w, std::uint32_t i) {
    // Positions ascend, so an equal priority keeps the earlier (lower-id)
    // edge: the (z, id) order of Lemma 13.
    const std::uint32_t b = best[w];
    if (b == kNoPosition || priority[i] < priority[b]) best[w] = i;
  };
  const auto count = static_cast<std::uint32_t>(estar.size());
  for (std::uint32_t i = 0; i < count; ++i) {
    offer(estar[i].u, i);
    offer(estar[i].v, i);
  }
}

std::vector<std::uint32_t> local_minima(std::uint32_t n,
                                        const std::vector<Edge>& estar,
                                        const std::uint64_t* priority) {
  std::vector<std::uint32_t> best;
  incidence_argmins(n, estar, priority, best);
  std::vector<std::uint32_t> minima;
  const auto count = static_cast<std::uint32_t>(estar.size());
  for (std::uint32_t i = 0; i < count; ++i) {
    if (argmin_at_both(best, estar[i], i)) minima.push_back(i);
  }
  return minima;
}

}  // namespace detail

DetMatchingResult det_maximal_matching(const Graph& g,
                                       const DetMatchingConfig& config) {
  mpc::Cluster cluster(cluster_config_for(config, g.num_nodes(), g.num_edges()),
                       config.setup);
  return det_maximal_matching(cluster, g, config);
}

DetMatchingResult det_maximal_matching(mpc::Cluster& cluster, const Graph& g,
                                       const DetMatchingConfig& config) {
  const sparsify::Params params = params_for(config, g.num_nodes());
  DetMatchingResult result;
  std::vector<bool> alive(g.num_nodes(), true);
  obs::Span pipeline_span(cluster.trace(), "matching/pipeline");
  // Distributed state a phase checkpoint persists: the edge list plus the
  // per-node alive/matched flags.
  const std::uint64_t phase_words = 2 * g.num_edges() + g.num_nodes();

  while (graph::alive_edge_count(g, alive, cluster.executor()) > 0) {
    DMPC_CHECK_MSG(result.iterations < config.max_iterations,
                   "matching iteration cap exceeded");
    ++result.iterations;
    IterationReport report;
    report.iteration = result.iterations;
    obs::Span iter_span(cluster.trace(), "matching/iteration");
    iter_span.arg("iteration", report.iteration);

    // 1. Good nodes (Corollary 8).
    cluster.mark_phase("matching/phase/good_nodes", phase_words);
    const auto good = [&] {
      obs::Span phase_span(cluster.trace(), "matching/phase/good_nodes");
      return sparsify::select_matching_good_set(cluster, params, g, alive);
    }();
    report.cls = good.cls;
    report.edges_before = good.alive_edges;

    // 2. Sparsify E_0 -> E* (§3.2).
    cluster.mark_phase("matching/phase/sparsify", phase_words);
    const auto sparse = [&] {
      obs::Span phase_span(cluster.trace(), "matching/phase/sparsify");
      return sparsify::sparsify_edges(cluster, params, g, good,
                                      config.sparsify);
    }();
    report.sparsify_stages = sparse.stages.size();
    report.estar_max_degree = sparse.max_degree;
    for (const sparsify::StageReport& s : sparse.stages) {
      report.invariant_degree_ratio =
          std::max(report.invariant_degree_ratio, s.invariant_degree_ratio);
      report.invariant_xv_ratio =
          std::min(report.invariant_xv_ratio, s.invariant_xv_ratio);
      report.window_multiplier =
          std::max(report.window_multiplier, s.window_multiplier);
    }

    // 3. Gather 2-hop neighborhoods of B-nodes in E* (space check, §3.3).
    cluster.mark_phase("matching/phase/gather", phase_words);
    std::optional<obs::Span> gather_span;
    gather_span.emplace(cluster.trace(), "matching/phase/gather");
    std::vector<EdgeId> estar_edges;
    std::vector<std::uint32_t> estar_degree(g.num_nodes(), 0);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!sparse.in_Estar[e]) continue;
      estar_edges.push_back(e);
      ++estar_degree[g.edge(e).u];
      ++estar_degree[g.edge(e).v];
    }
    {
      // B-node v gathers its E* edges and its E* neighbors' E* edges:
      // deg*(v) + sum over E* edges (v, w) of deg*(w) records, 2 words each.
      std::vector<std::uint64_t> two_hop(g.num_nodes(), 0);
      cluster.executor().for_each(
          0, g.num_nodes(),
          [&](std::uint64_t node) {
            const auto v = static_cast<NodeId>(node);
            if (!good.in_B[v]) return;
            const auto neighbors = g.neighbors(v);
            const auto incident = g.incident_edges(v);
            std::uint64_t words = estar_degree[v];
            for (std::size_t j = 0; j < incident.size(); ++j) {
              if (sparse.in_Estar[incident[j]]) {
                words += estar_degree[neighbors[j]];
              }
            }
            two_hop[v] = 2 * words;
          },
          /*grain=*/4096);
      mpc::charge_two_hop_gather(cluster, two_hop, good.in_B,
                                 "matching/gather2hop");
    }
    gather_span.reset();

    // 4-5. Derandomized Lemma-13 selection.
    cluster.mark_phase("matching/phase/derand", phase_words);
    std::optional<obs::Span> derand_span;
    derand_span.emplace(cluster.trace(), "matching/phase/derand");
    const auto alive_degree = graph::alive_degrees(g, alive, cluster.executor());
    const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_edges());
    hash::KWiseFamily family(domain, domain, /*k=*/2);
    SelectionObjective objective(g, family, estar_edges, good.in_B,
                                 alive_degree);
    const double threshold =
        config.threshold_factor * static_cast<double>(good.b_degree_mass);
    derand::SearchResult committed;
    if (config.selection_mode == SelectionMode::kConditionalExpectation) {
      // The textbook §2.4 path: fix the two coefficients of the pairwise
      // seed chunk by chunk with exact conditional expectations. The oracle
      // enumerates suffixes, so keep the family small.
      DMPC_CHECK_MSG(family.seed_count() <= (1ULL << 22),
                     "conditional-expectation selection needs a small "
                     "instance (family of <= 2^22 seeds)");
      const hash::SeedSpace space({family.p(), family.p()});
      derand::ExhaustiveConditional conditional(objective, space);
      derand::FixOptions fix_options;
      fix_options.guarantee = 0.0;
      fix_options.label = "matching/selection_ce";
      const auto fixed =
          derand::fix_seed(cluster, conditional, space, fix_options);
      committed.seed = fixed.seed;
      committed.value = fixed.value;
      committed.trials = space.size();
    } else {
      committed = select_with_threshold(cluster, objective,
                                        family.seed_count(), threshold,
                                        result.iterations, config);
    }
    report.selection_trials = committed.trials;
    if (derand_span->active()) {
      derand_span->arg("candidate_seeds", committed.trials);
      derand_span->arg("committed_seed", committed.seed);
    }
    derand_span.reset();

    cluster.mark_phase("matching/phase/commit", phase_words);
    obs::Span commit_span(cluster.trace(), "matching/phase/commit");
    const auto matched = objective.matching_for(committed.seed);
    DMPC_CHECK_MSG(!matched.empty(), "empty committed matching");
    report.matched_pairs = matched.size();
    for (EdgeId e : matched) {
      result.matching.push_back(e);
      alive[g.edge(e).u] = false;
      alive[g.edge(e).v] = false;
    }

    report.edges_after = graph::alive_edge_count(g, alive, cluster.executor());
    report.progress_fraction =
        static_cast<double>(report.edges_before - report.edges_after) /
        static_cast<double>(report.edges_before);
    // Lemma-13 progress series: one structured event per iteration (the
    // machine-readable successor of the old free-form debug line).
    if (auto* trace = cluster.trace(); obs::enabled(trace)) {
      trace->instant(
          "matching/progress",
          {obs::arg("iteration", report.iteration),
           obs::arg("edges_remaining",
                    static_cast<std::uint64_t>(report.edges_after)),
           obs::arg("good_node_fraction",
                    static_cast<double>(good.b_degree_mass) /
                        static_cast<double>(2 * good.alive_edges)),
           obs::arg("matched_pairs",
                    static_cast<std::uint64_t>(report.matched_pairs)),
           obs::arg("progress_fraction", report.progress_fraction)});
    }
    if (iter_span.active()) {
      iter_span.arg("edges_before",
                    static_cast<std::uint64_t>(report.edges_before));
      iter_span.arg("edges_after",
                    static_cast<std::uint64_t>(report.edges_after));
      iter_span.arg("class", static_cast<std::uint64_t>(report.cls));
    }
    result.reports.push_back(report);
  }

  DMPC_CHECK_MSG(graph::is_maximal_matching(g, result.matching),
                 "det_maximal_matching produced a non-maximal matching");
  result.metrics = cluster.metrics();
  result.recovery = cluster.recovery_stats();
  return result;
}

}  // namespace dmpc::matching
