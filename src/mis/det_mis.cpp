#include "mis/det_mis.hpp"

#include <algorithm>

#include "matching/luby.hpp"
#include "mpc/distribution.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/node_sparsifier.hpp"
#include "support/check.hpp"

namespace dmpc::mis {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

/// The Q' structures and N_v windows the Lemma-21 selection reads.
struct MisGather {
  std::vector<NodeId> q_nodes;
  std::vector<std::vector<NodeId>> q_adj;
  std::vector<std::uint32_t> alive_degree;
  std::vector<NodeId> b_nodes;
  std::vector<std::vector<NodeId>> nv;
};

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
                        const MisGather& in)
      : g_(&g),
        in_(&in),
        points_(in.q_nodes.begin(), in.q_nodes.end()),
        node_pos_(g.num_nodes(), 0) {
    for (std::size_t i = 0; i < in.q_nodes.size(); ++i) {
      node_pos_[in.q_nodes[i]] = i;
    }
    bind_points(family, points_.data(), points_.size());
  }

  std::vector<NodeId> independent_set_for(std::uint64_t seed) const {
    const auto fn = family().at(seed);
    std::vector<std::uint64_t> values(points_.size());
    fn.raw_many(points_.data(), points_.size(), values.data());
    std::vector<NodeId> set;
    for (std::size_t i = 0; i < in_->q_nodes.size(); ++i) {
      if (is_local_min(i, values.data())) set.push_back(in_->q_nodes[i]);
    }
    return set;
  }

  void prepare_seed(std::uint64_t /*seed*/,
                    const std::uint64_t* values) const override {
    std::vector<std::uint8_t>& in_ih = in_ih_scratch();
    in_ih.assign(g_->num_nodes(), 0);
    for (std::size_t i = 0; i < in_->q_nodes.size(); ++i) {
      if (is_local_min(i, values)) in_ih[in_->q_nodes[i]] = 1;
    }
  }

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t /*seed*/,
                          const std::uint64_t* /*values*/) const override {
    const std::vector<std::uint8_t>& in_ih = in_ih_scratch();
    double q = 0.0;
    for (std::uint64_t idx = range_begin; idx < range_end; ++idx) {
      const NodeId v = in_->b_nodes[idx];
      for (NodeId u : in_->nv[v]) {
        if (in_ih[u] != 0) {
          q += static_cast<double>(in_->alive_degree[v]);
          break;
        }
      }
    }
    return q;
  }

  std::uint64_t range_count() const override { return in_->b_nodes.size(); }
  std::uint64_t term_count() const override { return in_->b_nodes.size(); }

 private:
  static std::vector<std::uint8_t>& in_ih_scratch() {
    thread_local std::vector<std::uint8_t> in_ih;
    return in_ih;
  }

  /// Local-min test over precomputed priorities; `i` is the Q' position of
  /// the node (identical comparisons to the former per-node raw()).
  bool is_local_min(std::size_t i, const std::uint64_t* values) const {
    const NodeId v = in_->q_nodes[i];
    const std::uint64_t zv = values[i];
    for (NodeId u : in_->q_adj[v]) {
      const std::uint64_t zu = values[node_pos_[u]];
      if (zu < zv || (zu == zv && u < v)) return false;
    }
    return true;
  }

  const Graph* g_;
  const MisGather* in_;
  std::vector<std::uint64_t> points_;  ///< q_nodes widened to the hash domain
  std::vector<std::size_t> node_pos_;  ///< NodeId -> position in q_nodes
};

/// §4's side of the Luby iteration (matching/luby.hpp).
struct MisStep : matching::LubyRun {
  static constexpr const char* kPrefix = "mis";
  static constexpr const char* kProgressKey = "independent_added";
  // One pool task per kBatchChunk seeds, so a default-width batch runs on
  // this thread: the MIS seeds are a small share of the run, and per-seed
  // tasks made the sparse-gnm MIS wall time follow how many cores the host
  // had idle (bench/perf mis_gnm_sparse). Wider batches still spread
  // chunk-wise.
  static constexpr std::size_t kGrain = derand::kBatchChunk;
  static constexpr std::uint64_t kNodeWords = 2;  // alive and in-set flags
  static constexpr bool kHashesEdges = false;

  explicit MisStep(LubyRun run) : LubyRun(std::move(run)) {
    result.in_set.assign(g.num_nodes(), false);
  }

  DetMisResult result;

  // 1. Isolated alive nodes join the MIS and leave the graph.
  std::uint64_t absorb_isolated() {
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
  }

  // 2. Good nodes (Corollary 16).
  sparsify::MisGoodSet good_nodes() {
    return sparsify::select_mis_good_set(cluster, params, g, alive);
  }

  // 3. Sparsify Q_0 -> Q' (§4.2).
  sparsify::NodeSparsifyResult sparsify(const sparsify::MisGoodSet& good) {
    return sparsify::sparsify_nodes(cluster, params, g, alive, good,
                                    config.sparsify);
  }

  // 4. Build Q' structures and the N_v windows; charge the gather.
  MisGather gather(const sparsify::MisGoodSet& good,
                   const sparsify::NodeSparsifyResult& sparse) {
    MisGather out;
    out.q_adj.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!alive[v] || !sparse.in_Qprime[v]) continue;
      out.q_nodes.push_back(v);
      for (NodeId u : g.neighbors(v)) {
        if (alive[u] && sparse.in_Qprime[u]) out.q_adj[v].push_back(u);
      }
    }
    out.alive_degree = graph::alive_degrees(g, alive, cluster.executor());
    out.nv.resize(g.num_nodes());
    const std::uint64_t window = params.group_size();
    std::vector<std::uint64_t> two_hop(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!alive[v] || !good.in_B[v]) continue;
      out.b_nodes.push_back(v);
      std::vector<NodeId>& nv = out.nv[v];
      for (NodeId u : g.neighbors(v)) {
        if (!alive[u] || !sparse.in_Qprime[u]) continue;
        nv.push_back(u);
        if (nv.size() >= window) break;  // arbitrary n^{4 delta} subset
      }
      std::uint64_t words = nv.size();
      for (NodeId u : nv) words += out.q_adj[u].size();
      two_hop[v] = words;
    }
    mpc::charge_two_hop_gather(cluster, two_hop, good.in_B, "mis/gather");
    return out;
  }

  // 5-6. The Lemma-21 selection over Q'.
  MisSelectionObjective objective(const hash::KWiseFamily& family,
                                  const sparsify::MisGoodSet& /*good*/,
                                  const MisGather& gathered) const {
    return MisSelectionObjective(g, family, gathered);
  }

  double threshold(const sparsify::MisGoodSet& good) const {
    return kLemma21Threshold * params.delta() *
           static_cast<double>(good.b_degree_mass);
  }

  // Add I_h to the MIS and delete I_h ∪ N(I_h).
  std::uint64_t commit(const MisSelectionObjective& objective,
                       std::uint64_t seed) {
    const auto independent = objective.independent_set_for(seed);
    for (NodeId v : independent) {
      DMPC_CHECK(alive[v]);
      result.in_set[v] = true;
    }
    graph::remove_closed(g, independent, alive);
    return independent.size();
  }

  bool maximal() const {
    return graph::is_maximal_independent_set(g, result.in_set);
  }
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
  return matching::run_luby(MisStep({cluster, g, config}));
}

}  // namespace dmpc::mis
