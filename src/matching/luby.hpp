// The derandomized Luby iteration of §3 (Theorem 7) and §4 (Theorem 14),
// written once. A Step (MatchingStep in det_matching.cpp, MisStep in
// det_mis.cpp) derives from LubyRun and supplies what differs: kPrefix,
// kProgressKey (event key of the committed count), kGrain, kNodeWords
// (per-node checkpoint words), kHashesEdges (hash edge ids, else node ids),
// `result`, and one method per pipeline step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "derand/seed_search.hpp"
#include "graph/validate.hpp"
#include "hash/kwise.hpp"
#include "matching/det_matching.hpp"
#include "obs/trace.hpp"
#include "sparsify/stage.hpp"
#include "support/check.hpp"

namespace dmpc::matching {

/// The state run_luby shares with a Step.
struct LubyRun {
  mpc::Cluster& cluster;
  const graph::Graph& g;
  const DetMatchingConfig& config;
  const sparsify::Params params = params_for(config, g.num_nodes());
  std::vector<bool> alive = std::vector<bool>(g.num_nodes(), true);
};

/// Runs the iteration for `step` and returns its result.
template <typename Step>
auto run_luby(Step step) {
  mpc::Cluster& cluster = step.cluster;
  const graph::Graph& g = step.g;
  auto& result = step.result;
  const std::string prefix = Step::kPrefix;
  const std::string phase = prefix + "/phase/";
  obs::Span pipeline_span(cluster.trace(), prefix + "/pipeline");
  // A phase checkpoint persists the edge list and the per-node flags.
  const std::uint64_t phase_words =
      2 * g.num_edges() + Step::kNodeWords * g.num_nodes();
  // Runs `body` as one phase: the boundary plus its span.
  const auto in_phase = [&](const char* name, auto&& body) {
    const obs::Span span = cluster.mark_phase(phase + name, phase_words);
    return body();
  };

  while (graph::alive_edge_count(g, step.alive, cluster.executor()) > 0) {
    DMPC_CHECK_MSG(result.iterations < step.config.max_iterations,
                   prefix << " iteration cap exceeded");
    ++result.iterations;
    obs::Span iter_span(cluster.trace(), prefix + "/iteration");
    iter_span.arg("iteration", result.iterations);
    IterationReport report;
    report.iteration = result.iterations;
    report.isolated_added = step.absorb_isolated();

    const auto good = in_phase("good_nodes", [&] { return step.good_nodes(); });
    report.cls = good.cls;
    report.edges_before = good.alive_edges;

    const auto sparse =
        in_phase("sparsify", [&] { return step.sparsify(good); });
    report.sparsify_stages = sparse.stages.size();
    report.sparse_max_degree = sparse.max_degree;
    report.worst = sparsify::worst_invariants(sparse.stages);

    const auto gathered =
        in_phase("gather", [&] { return step.gather(good, sparse); });

    // The objective outlives the derand span: the commit reads it.
    obs::Span derand_span = cluster.mark_phase(phase + "derand", phase_words);
    const std::uint64_t domain = std::max<std::uint64_t>(
        2, Step::kHashesEdges ? g.num_edges() : g.num_nodes());
    const hash::KWiseFamily family(domain, domain, /*k=*/2);
    const auto objective = step.objective(family, good, gathered);
    const auto committed = derand::select_seed(
        cluster, objective, family,
        {.label = prefix + "/selection",
         .mode = step.config.selection_mode,
         .threshold = step.threshold(good),
         .batch = step.config.selection_batch,
         .salt = result.iterations,
         .grain = Step::kGrain});
    report.selection_trials = committed.trials;
    derand_span.arg("candidate_seeds", committed.trials);
    derand_span.arg("committed_seed", committed.seed);
    derand_span.end();

    obs::Span commit_span = cluster.mark_phase(phase + "commit", phase_words);
    report.committed = step.commit(objective, committed.seed);
    DMPC_CHECK_MSG(report.committed > 0, prefix << " committed nothing");
    report.edges_after =
        graph::alive_edge_count(g, step.alive, cluster.executor());
    report.progress_fraction =
        static_cast<double>(report.edges_before - report.edges_after) /
        static_cast<double>(report.edges_before);
    if (auto* trace = cluster.trace(); obs::enabled(trace)) {
      trace->instant(
          prefix + "/progress",
          {obs::arg("iteration", report.iteration),
           obs::arg("edges_remaining", report.edges_after),
           obs::arg("good_node_fraction",
                    static_cast<double>(good.b_degree_mass) /
                        static_cast<double>(2 * good.alive_edges)),
           obs::arg(Step::kProgressKey, report.committed),
           obs::arg("progress_fraction", report.progress_fraction)});
    }
    iter_span.arg("edges_before", report.edges_before);
    iter_span.arg("edges_after", report.edges_after);
    iter_span.arg("class", std::uint64_t{report.cls});
    result.reports.push_back(report);
  }
  step.absorb_isolated();

  DMPC_CHECK_MSG(step.maximal(), prefix << " produced a non-maximal answer");
  result.metrics = cluster.metrics();
  result.recovery = cluster.recovery_stats();
  return std::move(result);
}

}  // namespace dmpc::matching
