#include "sparsify/good_nodes.hpp"

#include "mpc/primitives.hpp"
#include "sparsify/degree_classes.hpp"
#include "support/check.hpp"

namespace dmpc::sparsify {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {
// FP slack for the >= 1/3 and >= delta/3 tests: the underlying quantities
// are rationals; equality cases must pass.
constexpr double kTol = 1e-9;

/// Charge the constant number of Lemma-4 passes the selection uses (§3.1:
/// degrees, X membership, and the per-class mass aggregation).
void charge_selection(mpc::Cluster& cluster, EdgeId alive_edges,
                      const std::string& label) {
  const std::uint64_t records = std::max<EdgeId>(2 * alive_edges, 2);
  const std::uint64_t rounds = 3 * mpc::sort_round_cost(cluster, records);
  mpc::check_blocked_layout(cluster, records, 2, label);
  cluster.charge(label, rounds, 2 * records);
}
}  // namespace

MatchingGoodSet select_matching_good_set(mpc::Cluster& cluster,
                                         const Params& params,
                                         const Graph& g,
                                         const std::vector<bool>& alive) {
  MatchingGoodSet out;
  const auto deg = graph::alive_degrees(g, alive, cluster.executor());
  out.alive_edges = graph::alive_edge_count(g, alive, cluster.executor());
  DMPC_CHECK_MSG(out.alive_edges > 0, "good-node selection on empty graph");
  charge_selection(cluster, out.alive_edges, "good_nodes/matching");

  // X membership: v in X iff 3 * |{u ~ v alive : d(u) <= d(v)}| >= d(v).
  const NodeId n = g.num_nodes();
  std::vector<bool> in_X(n, false);
  std::uint64_t x_mass = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!alive[v] || deg[v] == 0) continue;
    std::uint64_t low = 0;
    for (NodeId u : g.neighbors(v)) {
      if (alive[u] && deg[u] <= deg[v]) ++low;
    }
    if (3 * low >= deg[v]) {
      in_X[v] = true;
      x_mass += deg[v];
    }
  }
  // Lemma 3: sum_{v in X} d(v) >= |E| / 2.
  DMPC_CHECK_MSG(2 * x_mass >= out.alive_edges,
                 "Lemma 3 violated: X mass " << x_mass << " vs |E| "
                                             << out.alive_edges);

  // Class masses over B_i = C_i ∩ X; pick the heaviest class.
  const DegreeClasses classes = classify(params, deg);
  std::vector<std::uint64_t> b_mass(params.inv_delta + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (in_X[v]) b_mass[classes.class_of[v]] += deg[v];
  }
  std::uint32_t best = 1;
  for (std::uint32_t i = 2; i <= params.inv_delta; ++i) {
    if (b_mass[i] > b_mass[best]) best = i;
  }
  // Corollary 8: the best class carries >= (delta/2)|E| degree mass.
  DMPC_CHECK_MSG(
      2 * params.inv_delta * b_mass[best] >= out.alive_edges,
      "Corollary 8 violated: best class mass " << b_mass[best]);
  out.cls = best;
  out.b_degree_mass = b_mass[best];

  // B, X(v), and E_0.
  out.in_B.assign(n, false);
  out.in_E0.assign(g.num_edges(), false);
  out.xv.assign(n, {});
  for (NodeId v = 0; v < n; ++v) {
    if (!in_X[v] || classes.class_of[v] != best) continue;
    out.in_B[v] = true;
    auto nb = g.neighbors(v);
    auto inc = g.incident_edges(v);
    for (std::size_t idx = 0; idx < nb.size(); ++idx) {
      const NodeId u = nb[idx];
      if (alive[u] && deg[u] <= deg[v]) {
        out.xv[v].push_back(inc[idx]);
        out.in_E0[inc[idx]] = true;
      }
    }
    // Definition of X guarantees |X(v)| >= d(v)/3.
    DMPC_CHECK(3 * out.xv[v].size() >= deg[v]);
  }
  return out;
}

MisGoodSet select_mis_good_set(mpc::Cluster& cluster, const Params& params,
                               const Graph& g, const std::vector<bool>& alive) {
  MisGoodSet out;
  const auto deg = graph::alive_degrees(g, alive, cluster.executor());
  out.alive_edges = graph::alive_edge_count(g, alive, cluster.executor());
  DMPC_CHECK_MSG(out.alive_edges > 0, "good-node selection on empty graph");
  charge_selection(cluster, out.alive_edges, "good_nodes/mis");

  const NodeId n = g.num_nodes();
  const DegreeClasses classes = classify(params, deg);
  const double delta = params.delta();

  // B_i membership: sum over class-i alive neighbors of 1/d(u) >= delta/3.
  // Track per-class sums per node in one pass over adjacencies.
  std::vector<std::uint64_t> b_mass(params.inv_delta + 1, 0);
  std::vector<std::vector<bool>> in_Bi(
      params.inv_delta + 1, std::vector<bool>(n, false));
  for (NodeId v = 0; v < n; ++v) {
    if (!alive[v] || deg[v] == 0) continue;
    std::vector<double> class_sum(params.inv_delta + 1, 0.0);
    for (NodeId u : g.neighbors(v)) {
      if (!alive[u] || deg[u] == 0) continue;
      class_sum[classes.class_of[u]] += 1.0 / static_cast<double>(deg[u]);
    }
    for (std::uint32_t i = 1; i <= params.inv_delta; ++i) {
      if (class_sum[i] >= delta / 3.0 - kTol) {
        in_Bi[i][v] = true;
        b_mass[i] += deg[v];
      }
    }
  }
  std::uint32_t best = 1;
  for (std::uint32_t i = 2; i <= params.inv_delta; ++i) {
    if (b_mass[i] > b_mass[best]) best = i;
  }
  // Corollary 16: the best B_i carries >= (delta/2)|E| degree mass.
  DMPC_CHECK_MSG(
      2 * params.inv_delta * b_mass[best] >= out.alive_edges,
      "Corollary 16 violated: best class mass " << b_mass[best]);
  out.cls = best;
  out.b_degree_mass = b_mass[best];
  out.in_B = in_Bi[best];

  out.in_Q0.assign(n, false);
  for (NodeId v = 0; v < n; ++v) {
    if (alive[v] && classes.class_of[v] == best) out.in_Q0[v] = true;
  }
  return out;
}

}  // namespace dmpc::sparsify
