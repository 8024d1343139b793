#include "sparsify/node_sparsifier.hpp"

#include <algorithm>
#include <cmath>

#include "mpc/distribution.hpp"
#include "obs/trace.hpp"

namespace dmpc::sparsify {

using graph::Graph;
using graph::NodeId;

NodeSparsifyResult sparsify_nodes(mpc::Cluster& cluster, const Params& params,
                                  const Graph& g,
                                  const std::vector<bool>& alive,
                                  const MisGoodSet& good,
                                  const SparsifyConfig& config) {
  NodeSparsifyResult result;
  result.in_Qprime = good.in_Q0;

  const std::uint32_t planned = params.stages_for_class(good.cls);
  const std::uint64_t group = params.group_size();
  const double q = params.sample_probability();
  const auto deg = graph::alive_degrees(g, alive, cluster.executor());
  // Lemma 18's weight 1/d(u), which the type-B mass windows sum.
  std::vector<double> inv_deg(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (deg[v] > 0) inv_deg[v] = 1.0 / static_cast<double>(deg[v]);
  }

  const StageHash stage_hash(g.num_nodes(), q, config.hash_k);

  auto q_degree = [&](NodeId v) {
    std::uint32_t d = 0;
    for (NodeId u : g.neighbors(v)) {
      if (alive[u] && result.in_Qprime[u]) ++d;
    }
    return d;
  };

  // Baselines for the invariant measurements; Q' starts as Q_0.
  std::vector<std::uint32_t> deg_q0(g.num_nodes(), 0);
  std::vector<double> hmass_q0(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!alive[v]) continue;
    for (NodeId u : g.neighbors(v)) {
      if (alive[u] && good.in_Q0[u]) {
        ++deg_q0[v];
        hmass_q0[v] += inv_deg[u];
      }
    }
    if (good.in_Q0[v]) {
      result.max_q_degree = std::max(result.max_q_degree, deg_q0[v]);
    }
  }

  std::uint32_t stage = 0;
  std::uint32_t extra_used = 0;
  while (true) {
    if (stage >= planned) {
      if (result.max_q_degree <= params.degree_cap() ||
          extra_used >= kExtraStageCap) {
        break;
      }
      ++extra_used;
    }
    ++stage;
    // Each stage rewrites the survivor set from the previous one, so it is a
    // recovery-safe boundary for phase-granularity checkpoints.
    cluster.mark_phase("mis_sparsify/stage", g.num_nodes());
    obs::Span stage_span(cluster.trace(), "mis_sparsify/stage");
    stage_span.arg("stage", static_cast<std::uint64_t>(stage));

    // --- Distribute Q-neighbor lists into per-owner windows: type-Q
    // (upper count) and type-B (lower 1/d mass). Q' holds alive nodes only. ---
    WindowSet windows(result.in_Qprime);
    windows.weight.reserve(windows.ids.size());
    for (const std::uint64_t u : windows.ids) {
      windows.weight.push_back(inv_deg[u]);
    }
    std::vector<std::uint64_t> counts(g.num_nodes(), 0);
    auto append_q_neighbors = [&](NodeId owner, Side side) {
      const std::uint64_t begin = windows.slots.size();
      for (NodeId u : g.neighbors(owner)) {
        if (alive[u] && result.in_Qprime[u]) windows.push(u);
      }
      return windows.close(begin, side);
    };
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (result.in_Qprime[v]) counts[v] = append_q_neighbors(v, Side::kUpper);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (alive[v] && good.in_B[v]) append_q_neighbors(v, Side::kMass);
    }
    windows.add_global();
    mpc::build_machine_groups(cluster, counts, group, /*arity=*/1,
                              "mis_sparsify/distribute");

    // --- Derandomize the stage, then Q_j = {v in Q_{j-1} : h(v) < cutoff}. ---
    StageReport report =
        find_stage_seed(cluster, stage_hash, stage, windows, "mis_sparsify");
    if (!apply_stage_hash(stage_hash, result.in_Qprime, report,
                          "mis_sparsify")) {
      break;
    }

    // --- Measure the paper-form invariants (Lemmas 17 & 18). ---
    const double shrink = std::pow(q, static_cast<double>(stage));
    const double cls_lower = params.class_lower(good.cls);
    // Q'-nodes with deg_q0 = 0 have Q-degree 0, so skipping them leaves
    // the maximum unchanged.
    double worst_deg_ratio = 0.0;
    double worst_h_ratio = 2.0;
    report.max_degree_after = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!alive[v]) continue;
      if (result.in_Qprime[v] && deg_q0[v] > 0) {
        const std::uint32_t d = q_degree(v);
        report.max_degree_after = std::max(report.max_degree_after, d);
        const double bound =
            shrink * static_cast<double>(deg_q0[v]) + params.pow_nd(3.0);
        worst_deg_ratio =
            std::max(worst_deg_ratio, static_cast<double>(d) / bound);
      }
      if (good.in_B[v] && hmass_q0[v] > 0) {
        double mass = 0.0;
        for (NodeId u : g.neighbors(v)) {
          if (alive[u] && result.in_Qprime[u]) mass += inv_deg[u];
        }
        const double expect = shrink * hmass_q0[v];
        if (expect * cls_lower >= 1.0) {  // above measurement resolution
          worst_h_ratio = std::min(worst_h_ratio, mass / expect);
        }
      }
    }
    report.invariant_degree_ratio = worst_deg_ratio;
    report.invariant_xv_ratio = worst_h_ratio;
    result.max_q_degree = report.max_degree_after;
    if (stage_span.active()) {
      stage_span.arg("candidate_seeds", report.trials);
      stage_span.arg("committed_seed", report.seed);
      stage_span.arg("kept_nodes", report.items_after);
      stage_span.arg("window_multiplier", report.window_multiplier);
    }
    result.stages.push_back(report);
  }
  return result;
}

}  // namespace dmpc::sparsify
