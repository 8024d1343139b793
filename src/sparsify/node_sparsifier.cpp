#include "sparsify/node_sparsifier.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace dmpc::sparsify {

using graph::Graph;
using graph::NodeId;

namespace {

/// §4.2's side of run_stages: node ids, with type-Q windows (every Q-node's
/// Q-neighbour list, upper count) and type-B windows (every alive B-node's
/// Q-neighbour list, lower 1/d mass). Q' holds alive nodes only.
struct NodeStages {
  static constexpr const char* kPrefix = "mis_sparsify";
  static constexpr std::uint64_t kArity = 1;

  const Graph& g;
  const std::vector<bool>& alive;
  const MisGoodSet& good;
  std::vector<double> inv_deg;         ///< Lemma 18's weight 1/d(u).
  std::vector<std::uint32_t> deg_q0;   ///< Q_0-degrees.
  std::vector<double> hmass_q0;        ///< Q_0 1/d masses.
  double nd3;                          ///< n^{3 delta}.
  double cls_lower;                    ///< The class's lower degree bound.

  std::uint64_t owners() const { return g.num_nodes(); }

  std::vector<WindowSource> sources(const std::vector<bool>& in_Q) const {
    const auto q_neighbors = [this, &in_Q](std::uint64_t v, IdSink& sink) {
      for (NodeId u : g.neighbors(static_cast<NodeId>(v))) {
        if (alive[u] && in_Q[u]) sink(u);
      }
    };
    return {{g.num_nodes(), Side::kUpper,
             [&in_Q, q_neighbors](std::uint64_t v, IdSink& sink) {
               if (in_Q[v]) q_neighbors(v, sink);
             }},
            {g.num_nodes(), Side::kMass,
             [this, q_neighbors](std::uint64_t v, IdSink& sink) {
               if (alive[v] && good.in_B[v]) q_neighbors(v, sink);
             }}};
  }

  const std::vector<double>* id_weight() const { return &inv_deg; }

  // Lemmas 17 & 18 at node v. Its mass is summed in neighbour order, so the
  // measurement is identical for every executor.
  StageMeasurement measure(std::uint64_t owner, const std::vector<bool>& in_Q,
                           double shrink) const {
    const auto v = static_cast<NodeId>(owner);
    StageMeasurement node;
    if (!alive[v]) return node;
    // Q'-nodes with deg_q0 = 0 have Q-degree 0, so skipping them leaves the
    // maximum unchanged.
    if (in_Q[v] && deg_q0[v] > 0) {
      for (NodeId u : g.neighbors(v)) {
        if (alive[u] && in_Q[u]) ++node.max_degree;
      }
      const double bound = shrink * static_cast<double>(deg_q0[v]) + nd3;
      node.degree_ratio = static_cast<double>(node.max_degree) / bound;
    }
    if (good.in_B[v] && hmass_q0[v] > 0) {
      double mass = 0.0;
      for (NodeId u : g.neighbors(v)) {
        if (alive[u] && in_Q[u]) mass += inv_deg[u];
      }
      const double expect = shrink * hmass_q0[v];
      if (expect * cls_lower >= 1.0) {  // above measurement resolution
        node.lower_ratio = mass / expect;
      }
    }
    return node;
  }

  void item_args(obs::Span& span, const StageReport& report) const {
    span.arg("kept_nodes", report.items_after);
  }
};

}  // namespace

NodeSparsifyResult sparsify_nodes(mpc::Cluster& cluster, const Params& params,
                                  const Graph& g,
                                  const std::vector<bool>& alive,
                                  const MisGoodSet& good,
                                  const SparsifyConfig& config) {
  NodeSparsifyResult result;
  result.in_Qprime = good.in_Q0;
  const NodeId n = g.num_nodes();
  NodeStages nodes{g,
                   alive,
                   good,
                   std::vector<double>(n, 0.0),
                   std::vector<std::uint32_t>(n, 0),
                   std::vector<double>(n, 0.0),
                   params.pow_nd(3.0),
                   params.class_lower(good.cls)};
  const auto deg = graph::alive_degrees(g, alive, cluster.executor());
  for (NodeId v = 0; v < n; ++v) {
    if (deg[v] > 0) nodes.inv_deg[v] = 1.0 / static_cast<double>(deg[v]);
  }
  // Baselines for the invariant measurements; Q' starts as Q_0. Each node
  // writes only its own entries.
  result.max_degree = cluster.executor().map_reduce(
      0, n, std::uint32_t{0},
      [&](std::uint64_t i) -> std::uint32_t {
        const auto v = static_cast<NodeId>(i);
        if (!alive[v]) return 0;
        for (NodeId u : g.neighbors(v)) {
          if (alive[u] && good.in_Q0[u]) {
            ++nodes.deg_q0[v];
            nodes.hmass_q0[v] += nodes.inv_deg[u];
          }
        }
        return good.in_Q0[v] ? nodes.deg_q0[v] : 0;
      },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); },
      kOwnerGrain);
  result.stages = run_stages(cluster, params, good.cls, config, nodes,
                             result.in_Qprime, result.max_degree);
  return result;
}

}  // namespace dmpc::sparsify
