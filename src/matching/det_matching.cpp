#include "matching/det_matching.hpp"

#include <algorithm>
#include <cmath>

#include "matching/luby.hpp"
#include "mpc/distribution.hpp"
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
                     std::vector<std::uint32_t> alive_degree)
      : n_(g.num_nodes()),
        estar_edges_(&estar_edges),
        in_B_(&in_B),
        alive_degree_(std::move(alive_degree)) {
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
        q += static_cast<double>(alive_degree_[v]);
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
  std::vector<std::uint32_t> alive_degree_;
  std::vector<Edge> estar_ends_;  ///< E*-position -> endpoints
};

/// §3's side of the Luby iteration (matching/luby.hpp).
struct MatchingStep : LubyRun {
  static constexpr const char* kPrefix = "matching";
  static constexpr const char* kProgressKey = "matched_pairs";
  static constexpr std::size_t kGrain = 1;
  static constexpr std::uint64_t kNodeWords = 1;  // alive/matched flag
  static constexpr bool kHashesEdges = true;

  DetMatchingResult result = {};

  // Isolated nodes stay unmatched.
  std::uint64_t absorb_isolated() { return 0; }

  // 1. Good nodes (Corollary 8).
  sparsify::MatchingGoodSet good_nodes() {
    return sparsify::select_matching_good_set(cluster, params, g, alive);
  }

  // 2. Sparsify E_0 -> E* (§3.2).
  sparsify::EdgeSparsifyResult sparsify(const sparsify::MatchingGoodSet& good) {
    return sparsify::sparsify_edges(cluster, params, g, good, config.sparsify);
  }

  // 3. Gather 2-hop neighborhoods of B-nodes in E* (space check, §3.3).
  // Returns the E* edge list the selection hashes.
  std::vector<EdgeId> gather(const sparsify::MatchingGoodSet& good,
                             const sparsify::EdgeSparsifyResult& sparse) {
    std::vector<EdgeId> estar_edges;
    std::vector<std::uint32_t> estar_degree(g.num_nodes(), 0);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!sparse.in_Estar[e]) continue;
      estar_edges.push_back(e);
      ++estar_degree[g.edge(e).u];
      ++estar_degree[g.edge(e).v];
    }
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
    return estar_edges;
  }

  // 4-5. The Lemma-13 selection over E*.
  SelectionObjective objective(const hash::KWiseFamily& family,
                               const sparsify::MatchingGoodSet& good,
                               const std::vector<EdgeId>& estar_edges) {
    return SelectionObjective(g, family, estar_edges, good.in_B,
                              graph::alive_degrees(g, alive,
                                                   cluster.executor()));
  }

  double threshold(const sparsify::MatchingGoodSet& good) const {
    return kLemma13Threshold * static_cast<double>(good.b_degree_mass);
  }

  // Add E_h to the matching and delete the matched nodes.
  std::uint64_t commit(const SelectionObjective& objective,
                       std::uint64_t seed) {
    const auto matched = objective.matching_for(seed);
    for (EdgeId e : matched) {
      result.matching.push_back(e);
      alive[g.edge(e).u] = false;
      alive[g.edge(e).v] = false;
    }
    return matched.size();
  }

  bool maximal() const {
    return graph::is_maximal_matching(g, result.matching);
  }
};

}  // namespace

sparsify::Params params_for(const DetMatchingConfig& config, std::uint64_t n) {
  return sparsify::Params::for_eps(n, config.eps);
}

mpc::ClusterConfig sparsification_cluster_config(double eps,
                                                 double space_headroom,
                                                 std::uint64_t n,
                                                 std::uint64_t m) {
  mpc::ClusterConfig cc;
  cc.machine_space = std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(
              space_headroom *
              std::pow(static_cast<double>(std::max<std::uint64_t>(n, 2)),
                       eps)));
  const auto total = static_cast<std::uint64_t>(
      mpc::kTotalSpaceFactor * static_cast<double>(m + n + 2));
  cc.num_machines = ceil_div(total, cc.machine_space) + 1;
  return cc;
}

mpc::ClusterConfig cluster_config_for(const DetMatchingConfig& config,
                                      std::uint64_t n, std::uint64_t m) {
  return sparsification_cluster_config(config.eps, config.space_headroom, n,
                                       m);
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
  return run_luby(MatchingStep({cluster, g, config}));
}

}  // namespace dmpc::matching
