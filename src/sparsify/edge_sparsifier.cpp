#include "sparsify/edge_sparsifier.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace dmpc::sparsify {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

/// §3.2's side of run_stages: edge ids, with type-A windows (every node's
/// incident E_{j-1} list, upper bound) and type-B windows (X(v) for v in B,
/// lower bound). X(v) is built inside E_0 and re-filtered after every stage,
/// so it holds E_{j-1} edges only.
struct EdgeStages {
  static constexpr const char* kPrefix = "sparsify";
  static constexpr std::uint64_t kArity = 2;

  const Graph& g;
  const MatchingGoodSet& good;
  std::vector<std::vector<EdgeId>>& xv_star;
  std::vector<std::uint32_t> deg_e0;  ///< Degrees in E_0.
  double nd3;                         ///< n^{3 delta}.

  std::uint64_t owners() const { return g.num_nodes(); }

  std::vector<WindowSource> sources(const std::vector<bool>& in_E) const {
    return {{g.num_nodes(), Side::kUpper,
             [this, &in_E](std::uint64_t v, IdSink& sink) {
               for (EdgeId e : g.incident_edges(static_cast<NodeId>(v))) {
                 if (in_E[e]) sink(e);
               }
             }},
            {g.num_nodes(), Side::kLower,
             [this](std::uint64_t v, IdSink& sink) {
               if (!good.in_B[v]) return;
               for (EdgeId e : xv_star[v]) sink(e);
             }}};
  }

  const std::vector<double>* id_weight() const { return nullptr; }

  // Lemmas 10 & 11 at node v, after re-filtering X(v) to E_j.
  StageMeasurement measure(std::uint64_t owner, const std::vector<bool>& in_E,
                           double shrink) const {
    const auto v = static_cast<NodeId>(owner);
    StageMeasurement node;
    // E_j lies inside E_0, so a node without E_0 edges has degree 0.
    if (deg_e0[v] > 0) {
      for (EdgeId e : g.incident_edges(v)) node.max_degree += in_E[e];
      const double bound = shrink * static_cast<double>(deg_e0[v]) + nd3;
      node.degree_ratio = static_cast<double>(node.max_degree) / bound;
    }
    if (good.in_B[v]) {
      auto& list = xv_star[v];
      std::erase_if(list, [&](EdgeId e) { return !in_E[e]; });
      const double expect = shrink * static_cast<double>(good.xv[v].size());
      if (expect >= 1.0) {  // above measurement resolution
        node.lower_ratio = static_cast<double>(list.size()) / expect;
      }
    }
    return node;
  }

  void item_args(obs::Span& span, const StageReport& report) const {
    span.arg("edges_before", report.items_before);
    span.arg("edges_after", report.items_after);
  }
};

}  // namespace

EdgeSparsifyResult sparsify_edges(mpc::Cluster& cluster, const Params& params,
                                  const Graph& g, const MatchingGoodSet& good,
                                  const SparsifyConfig& config) {
  EdgeSparsifyResult result;
  result.in_Estar = good.in_E0;
  result.xv_star = good.xv;
  const EdgeStages edges{
      g, good, result.xv_star,
      graph::masked_degrees(g, good.in_E0, cluster.executor()),
      params.pow_nd(3.0)};
  result.max_degree =
      *std::max_element(edges.deg_e0.begin(), edges.deg_e0.end());
  result.stages = run_stages(cluster, params, good.cls, config, edges,
                             result.in_Estar, result.max_degree);
  return result;
}

}  // namespace dmpc::sparsify
