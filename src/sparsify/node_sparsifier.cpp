#include "sparsify/node_sparsifier.hpp"

#include <algorithm>
#include <cmath>

#include "mpc/distribution.hpp"
#include "obs/trace.hpp"

namespace dmpc::sparsify {

using graph::Graph;
using graph::NodeId;

namespace {

/// Nodes per host task of the per-node passes.
constexpr std::uint64_t kNodeGrain = 256;

/// One stage's Lemma 17/18 measurements, folded over nodes: the largest
/// degree ratio, the smallest mass ratio and the largest Q-degree. The
/// defaults are the fold's identity.
struct Invariants {
  double degree_ratio = 0.0;
  double mass_ratio = 2.0;
  std::uint32_t max_degree = 0;
};

}  // namespace

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

  // Baselines for the invariant measurements; Q' starts as Q_0. Each node
  // writes only its own entries.
  std::vector<std::uint32_t> deg_q0(g.num_nodes(), 0);
  std::vector<double> hmass_q0(g.num_nodes(), 0.0);
  result.max_degree = cluster.executor().map_reduce(
      0, g.num_nodes(), std::uint32_t{0},
      [&](std::uint64_t i) -> std::uint32_t {
        const auto v = static_cast<NodeId>(i);
        if (!alive[v]) return 0;
        for (NodeId u : g.neighbors(v)) {
          if (alive[u] && good.in_Q0[u]) {
            ++deg_q0[v];
            hmass_q0[v] += inv_deg[u];
          }
        }
        return good.in_Q0[v] ? deg_q0[v] : 0;
      },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); },
      kNodeGrain);
  std::uint32_t stage = 0;
  std::uint32_t extra_used = 0;
  while (true) {
    if (stage >= planned) {
      if (result.max_degree <= params.degree_cap() ||
          extra_used >= kExtraStageCap) {
        break;
      }
      ++extra_used;
    }
    ++stage;
    // Each stage rewrites the survivor set from the previous one, so it is a
    // recovery-safe boundary for phase-granularity checkpoints.
    obs::Span stage_span =
        cluster.mark_phase("mis_sparsify/stage", g.num_nodes());
    stage_span.arg("stage", static_cast<std::uint64_t>(stage));

    // --- Distribute Q-neighbor lists into per-owner windows: type-Q
    // (upper count) and type-B (lower 1/d mass). Q' holds alive nodes only. ---
    std::vector<std::uint64_t> counts;
    const auto q_neighbors = [&](std::uint64_t v, IdSink& sink) {
      for (NodeId u : g.neighbors(static_cast<NodeId>(v))) {
        if (alive[u] && result.in_Qprime[u]) sink(u);
      }
    };
    WindowSet windows = build_windows(
        cluster.executor(), result.in_Qprime,
        {{g.num_nodes(), Side::kUpper,
          [&](std::uint64_t v, IdSink& sink) {
            if (result.in_Qprime[v]) q_neighbors(v, sink);
          },
          &counts},
         {g.num_nodes(), Side::kMass,
          [&](std::uint64_t v, IdSink& sink) {
            if (alive[v] && good.in_B[v]) q_neighbors(v, sink);
          }},
         global_window(result.in_Qprime)});
    windows.weight.reserve(windows.ids.size());
    for (const std::uint64_t u : windows.ids) {
      windows.weight.push_back(inv_deg[u]);
    }
    mpc::build_machine_groups(cluster, counts, group, /*arity=*/1,
                              "mis_sparsify/distribute");

    // --- Derandomize the stage, then Q_j = {v in Q_{j-1} : h(v) < cutoff}. ---
    StageReport report =
        find_stage_seed(cluster, stage_hash, stage, windows, "mis_sparsify");
    if (!apply_stage_hash(stage_hash, result.in_Qprime, report,
                          "mis_sparsify")) {
      break;
    }

    // --- Measure the paper-form invariants (Lemmas 17 & 18), one node per
    // term. Each node's mass is summed in neighbour order and the fold
    // takes exact maxima and minima, so the report is identical for every
    // executor. ---
    const double shrink = std::pow(q, static_cast<double>(stage));
    const double cls_lower = params.class_lower(good.cls);
    const Invariants measured = cluster.executor().map_reduce(
        0, g.num_nodes(), Invariants{},
        [&](std::uint64_t i) {
          const auto v = static_cast<NodeId>(i);
          Invariants node;
          if (!alive[v]) return node;
          // Q'-nodes with deg_q0 = 0 have Q-degree 0, so skipping them
          // leaves the maximum unchanged.
          if (result.in_Qprime[v] && deg_q0[v] > 0) {
            for (NodeId u : g.neighbors(v)) {
              if (alive[u] && result.in_Qprime[u]) ++node.max_degree;
            }
            const double bound =
                shrink * static_cast<double>(deg_q0[v]) + params.pow_nd(3.0);
            node.degree_ratio = static_cast<double>(node.max_degree) / bound;
          }
          if (good.in_B[v] && hmass_q0[v] > 0) {
            double mass = 0.0;
            for (NodeId u : g.neighbors(v)) {
              if (alive[u] && result.in_Qprime[u]) mass += inv_deg[u];
            }
            const double expect = shrink * hmass_q0[v];
            if (expect * cls_lower >= 1.0) {  // above measurement resolution
              node.mass_ratio = mass / expect;
            }
          }
          return node;
        },
        [](const Invariants& a, const Invariants& b) {
          return Invariants{std::max(a.degree_ratio, b.degree_ratio),
                            std::min(a.mass_ratio, b.mass_ratio),
                            std::max(a.max_degree, b.max_degree)};
        },
        kNodeGrain);
    report.max_degree_after = measured.max_degree;
    report.invariant_degree_ratio = measured.degree_ratio;
    report.invariant_xv_ratio = measured.mass_ratio;
    result.max_degree = report.max_degree_after;
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
