#include "lowdeg/lowdeg_solver.hpp"

#include <algorithm>
#include <cmath>

#include "graph/transforms.hpp"
#include "graph/validate.hpp"
#include "lowdeg/neighborhoods.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace dmpc::lowdeg {

using graph::Graph;
using graph::NodeId;

std::uint32_t phases_for(std::uint64_t space, std::uint32_t max_degree) {
  // Largest l with 4 * Delta^{2l+1} <= space. Clamped before the cast: l is
  // negative when not even a radius-0 ball fits (space / 4 < Delta).
  const double log_d =
      std::log(static_cast<double>(std::max<std::uint32_t>(max_degree, 2)));
  const double budget =
      std::log(std::max<double>(static_cast<double>(space) / 4.0, 4.0));
  const double l = std::floor((budget - log_d) / (2.0 * log_d));
  return static_cast<std::uint32_t>(
      std::clamp(l, 1.0, static_cast<double>(kMaxPhases)));
}

mpc::ClusterConfig cluster_config_for(const LowDegConfig& config,
                                      std::uint64_t n, std::uint64_t m,
                                      std::uint32_t max_degree) {
  mpc::ClusterConfig cc;
  const auto d = static_cast<std::uint64_t>(std::max<std::uint32_t>(max_degree, 1));
  cc.machine_space = std::max<std::uint64_t>(
      std::max<std::uint64_t>(64, 4 * d * d * d),
      static_cast<std::uint64_t>(
          config.space_headroom *
          std::pow(static_cast<double>(std::max<std::uint64_t>(n, 2)),
                   config.eps)));
  const auto total = static_cast<std::uint64_t>(
      mpc::kTotalSpaceFactor * static_cast<double>(m + n + 2));
  cc.num_machines = ceil_div(total, cc.machine_space) + 1;
  return cc;
}

LowDegMisResult lowdeg_mis(const Graph& g, const LowDegConfig& config) {
  mpc::Cluster cluster(
      cluster_config_for(config, g.num_nodes(), g.num_edges(), g.max_degree()),
      config.setup);
  return lowdeg_mis(cluster, g);
}

LowDegMisResult lowdeg_mis(mpc::Cluster& cluster, const Graph& g) {
  LowDegMisResult result;
  result.in_set.assign(g.num_nodes(), false);
  if (g.num_nodes() == 0) return result;
  std::vector<bool> alive(g.num_nodes(), true);

  if (g.num_edges() == 0) {
    result.in_set.assign(g.num_nodes(), true);
    result.metrics = cluster.metrics();
    return result;
  }

  obs::Span pipeline_span(cluster.trace(), "lowdeg/pipeline");
  // Distributed state a phase checkpoint persists: the edge list plus the
  // per-node alive/in-set flags.
  const std::uint64_t phase_words = 2 * g.num_edges() + 2 * g.num_nodes();

  // --- Preprocessing (§5.2.2): coloring + family + ball gathering. ---
  const auto coloring = [&] {
    const obs::Span phase_span =
        cluster.mark_phase("lowdeg/phase/coloring", phase_words);
    return distance2_coloring(cluster, g);
  }();
  result.colors = coloring.num_colors;
  hash::SmallFamily family(std::max<std::uint32_t>(coloring.num_colors, 2));

  const std::uint32_t l = phases_for(cluster.space(), g.max_degree());
  result.phases_per_stage = l;
  hash::FunctionSequence sequence(family, l, kPerPhaseCap);

  {
    const obs::Span phase_span =
        cluster.mark_phase("lowdeg/phase/gather", phase_words);
    gather_neighborhoods(cluster, g, alive, /*radius=*/2 * l);
  }

  // --- Stages. --- Every node starts alive; each stage's outcome carries
  // the alive edge count it leaves.
  graph::EdgeId remaining = g.num_edges();
  while (remaining > 0) {
    DMPC_CHECK_MSG(result.stages < kMaxStages, "stage cap exceeded");
    obs::Span stage_span = cluster.mark_phase("lowdeg/stage", phase_words);
    stage_span.arg("stage", static_cast<std::uint64_t>(result.stages + 1));
    const auto outcome =
        run_stage(cluster, g, alive, coloring.color, sequence);
    for (NodeId v : outcome.independent) result.in_set[v] = true;
    remaining = outcome.edges_after;
    ++result.stages;
    // Stage progress series: one structured event per stage (the
    // machine-readable successor of the old free-form debug line).
    if (auto* trace = cluster.trace(); obs::enabled(trace)) {
      trace->instant(
          "lowdeg/progress",
          {obs::arg("iteration", static_cast<std::uint64_t>(result.stages)),
           obs::arg("edges_remaining",
                    static_cast<std::uint64_t>(outcome.edges_after)),
           obs::arg("good_node_fraction",
                    outcome.edges_before == 0
                        ? 0.0
                        : static_cast<double>(outcome.edges_before -
                                              outcome.edges_after) /
                              static_cast<double>(outcome.edges_before)),
           obs::arg("independent_added",
                    static_cast<std::uint64_t>(outcome.independent.size()))});
    }
    if (stage_span.active()) {
      stage_span.arg("edges_before",
                     static_cast<std::uint64_t>(outcome.edges_before));
      stage_span.arg("edges_after",
                     static_cast<std::uint64_t>(outcome.edges_after));
    }
  }
  // Alive survivors are isolated; they join the MIS.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) result.in_set[v] = true;
  }

  DMPC_CHECK_MSG(graph::is_maximal_independent_set(g, result.in_set),
                 "lowdeg_mis produced a non-maximal independent set");
  result.metrics = cluster.metrics();
  result.recovery = cluster.recovery_stats();
  return result;
}

LowDegMatchingResult lowdeg_matching(const Graph& g,
                                     const LowDegConfig& config) {
  LowDegMatchingResult result;
  if (g.num_edges() == 0) return result;
  const Graph lg = graph::line_graph(g);
  // Line-graph construction is local to 1-hop neighborhoods: one exchange.
  mpc::Cluster cluster(cluster_config_for(config, lg.num_nodes(),
                                          lg.num_edges(), lg.max_degree()),
                       config.setup);
  cluster.charge("lowdeg/line_graph", 1, 0);
  result.line_mis = lowdeg_mis(cluster, lg);
  result.matching = graph::line_mis_matching(g, result.line_mis.in_set);
  return result;
}

}  // namespace dmpc::lowdeg
