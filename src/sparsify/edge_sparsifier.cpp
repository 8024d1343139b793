#include "sparsify/edge_sparsifier.hpp"

#include <algorithm>
#include <cmath>

#include "mpc/distribution.hpp"
#include "obs/trace.hpp"

namespace dmpc::sparsify {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

EdgeSparsifyResult sparsify_edges(mpc::Cluster& cluster, const Params& params,
                                  const Graph& g, const MatchingGoodSet& good,
                                  const SparsifyConfig& config) {
  EdgeSparsifyResult result;
  result.in_Estar = good.in_E0;
  result.xv_star = good.xv;

  const std::uint32_t planned = params.stages_for_class(good.cls);
  const std::uint64_t group = params.group_size();
  const double q = params.sample_probability();
  const double nd3 = params.pow_nd(3.0);

  // Baselines for the invariant measurements.
  const auto deg_e0 = graph::masked_degrees(g, good.in_E0, cluster.executor());
  result.max_degree = *std::max_element(deg_e0.begin(), deg_e0.end());

  const StageHash stage_hash(g.num_edges(), q, config.hash_k);

  std::uint32_t stage = 0;
  std::uint32_t extra_used = 0;
  while (true) {
    if (stage >= planned) {
      // §3.3 requires degrees <= 2 n^{4 delta} in E*; at finite n the
      // window slack can leave an overshoot, fixed by extra stages.
      if (result.max_degree <= params.degree_cap() ||
          extra_used >= kExtraStageCap) {
        break;
      }
      ++extra_used;
    }
    ++stage;
    // Each stage rewrites the survivor set from the previous one, so it is a
    // recovery-safe boundary for phase-granularity checkpoints.
    obs::Span stage_span = cluster.mark_phase("sparsify/stage", g.num_edges());
    stage_span.arg("stage", static_cast<std::uint64_t>(stage));

    // --- Distribute: type-A machine groups (every node's incident E_{j-1}
    // list, upper windows) and type-B groups (X(v) for v in B, lower
    // windows; X(v) is built inside E_0 and re-filtered after every stage,
    // so it holds E_{j-1} edges only). ---
    WindowSet windows(result.in_Estar);
    std::vector<std::uint64_t> counts(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::uint64_t begin = windows.slots.size();
      for (EdgeId e : g.incident_edges(v)) {
        if (result.in_Estar[e]) windows.push(e);
      }
      counts[v] = windows.close(begin, Side::kUpper);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!good.in_B[v]) continue;
      const std::uint64_t begin = windows.slots.size();
      for (EdgeId e : result.xv_star[v]) windows.push(e);
      windows.close(begin, Side::kLower);
    }
    windows.add_global();
    mpc::build_machine_groups(cluster, counts, group, /*arity=*/2,
                              "sparsify/distribute");

    // --- Derandomize the stage, then E_j = {e in E_{j-1} : h(e) < cutoff}. ---
    StageReport report =
        find_stage_seed(cluster, stage_hash, stage, windows, "sparsify");
    if (!apply_stage_hash(stage_hash, result.in_Estar, report, "sparsify")) {
      break;
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!good.in_B[v]) continue;
      auto& list = result.xv_star[v];
      std::erase_if(list, [&](EdgeId e) { return !result.in_Estar[e]; });
    }

    // --- Measure the paper-form invariants (Lemmas 10 & 11). ---
    const auto deg_now = graph::masked_degrees(g, result.in_Estar, cluster.executor());
    const double shrink = std::pow(q, static_cast<double>(stage));
    report.max_degree_after =
        *std::max_element(deg_now.begin(), deg_now.end());
    result.max_degree = report.max_degree_after;
    double worst_deg_ratio = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (deg_e0[v] == 0) continue;
      const double bound = shrink * static_cast<double>(deg_e0[v]) + nd3;
      worst_deg_ratio = std::max(
          worst_deg_ratio, static_cast<double>(deg_now[v]) / bound);
    }
    report.invariant_degree_ratio = worst_deg_ratio;
    double worst_xv_ratio = 2.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!good.in_B[v] || good.xv[v].empty()) continue;
      const double expect = shrink * static_cast<double>(good.xv[v].size());
      if (expect < 1.0) continue;  // below resolution — nothing to measure
      worst_xv_ratio = std::min(
          worst_xv_ratio,
          static_cast<double>(result.xv_star[v].size()) / expect);
    }
    report.invariant_xv_ratio = worst_xv_ratio;
    if (stage_span.active()) {
      stage_span.arg("candidate_seeds", report.trials);
      stage_span.arg("committed_seed", report.seed);
      stage_span.arg("edges_before", report.items_before);
      stage_span.arg("edges_after", report.items_after);
      stage_span.arg("window_multiplier", report.window_multiplier);
    }
    result.stages.push_back(report);
  }
  return result;
}

}  // namespace dmpc::sparsify
