#include "apps/derand_coloring.hpp"

#include <algorithm>

#include "derand/seed_search.hpp"
#include "graph/validate.hpp"
#include "hash/kwise.hpp"
#include "mpc/cluster.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace dmpc::apps {

using graph::Graph;
using graph::NodeId;

namespace {

constexpr std::uint32_t kUncolored = UINT32_MAX;

/// Nodes that stick under seed `fn`: proposal = remaining_palette[h mod
/// size]; sticks iff no uncolored neighbor proposes the same color (ties on
/// proposals broken in the node's favour only when ids differ... both drop
/// on a clash, the standard symmetric rule) and no colored neighbor owns it.
std::vector<std::pair<NodeId, std::uint32_t>> sticking(
    const Graph& g, const std::vector<std::uint32_t>& color,
    const std::vector<std::vector<std::uint32_t>>& palette,
    const hash::HashFn& fn) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> proposal(n, kUncolored);
  for (NodeId v = 0; v < n; ++v) {
    if (color[v] != kUncolored) continue;
    const auto& options = palette[v];
    DMPC_CHECK_MSG(!options.empty(), "palette exhausted — not (Delta+1)?");
    proposal[v] = options[fn.raw(v) % options.size()];
  }
  std::vector<std::pair<NodeId, std::uint32_t>> stuck;
  for (NodeId v = 0; v < n; ++v) {
    if (proposal[v] == kUncolored) continue;
    bool ok = true;
    for (NodeId u : g.neighbors(v)) {
      if (proposal[u] == proposal[v] || color[u] == proposal[v]) {
        ok = false;
        break;
      }
    }
    if (ok) stuck.emplace_back(v, proposal[v]);
  }
  return stuck;
}

/// The trial round's objective: the number of nodes that stick under a seed,
/// over the current colors and palettes.
class StickingObjective final : public derand::Objective {
 public:
  StickingObjective(const Graph& g, const hash::KWiseFamily& family,
                    const std::vector<std::uint32_t>& color,
                    const std::vector<std::vector<std::uint32_t>>& palette)
      : g_(g), family_(family), color_(color), palette_(palette) {}

  double evaluate(std::uint64_t seed) const override {
    return static_cast<double>(
        sticking(g_, color_, palette_, family_.at(seed)).size());
  }
  std::uint64_t term_count() const override { return g_.num_nodes(); }

 private:
  const Graph& g_;
  const hash::KWiseFamily& family_;
  const std::vector<std::uint32_t>& color_;
  const std::vector<std::vector<std::uint32_t>>& palette_;
};

}  // namespace

DerandColoringResult derand_coloring(const Graph& g,
                                     const DerandColoringConfig& config) {
  DerandColoringResult result;
  const NodeId n = g.num_nodes();
  result.color.assign(n, 0);
  if (n == 0) return result;

  // Model: the cluster mirrors the MIS pipeline's provisioning.
  mpc::ClusterConfig cc;
  cc.machine_space = std::max<std::uint64_t>(
      64, 8 * ipow_real(std::max<std::uint64_t>(n, 2), 0.5));
  cc.num_machines = ceil_div(8 * (2 * g.num_edges() + n + 2),
                             cc.machine_space) + 1;
  mpc::Cluster cluster(cc);

  std::vector<std::uint32_t> color(n, kUncolored);
  std::vector<std::vector<std::uint32_t>> palette(n);
  const std::uint32_t palette_size = g.max_degree() + 1;
  for (NodeId v = 0; v < n; ++v) {
    palette[v].resize(palette_size);
    for (std::uint32_t c = 0; c < palette_size; ++c) palette[v][c] = c;
  }

  const std::uint64_t domain = std::max<std::uint64_t>(2, n);
  hash::KWiseFamily family(domain, domain, /*k=*/2);

  const StickingObjective objective(g, family, color, palette);
  derand::SelectionOptions selection;
  selection.label = "coloring/commit";
  selection.threshold = 1.0;
  selection.batch = config.candidates_per_round;
  std::uint64_t remaining = n;
  while (remaining > 0) {
    DMPC_CHECK_MSG(result.rounds < config.max_rounds, "round cap exceeded");
    ++result.rounds;
    // Deterministic best-of-K seed commit, objective = #sticking nodes: one
    // O(1)-round aggregation per batch (§2.4 recipe), then two rounds in
    // which the stuck colors leave the neighbours' palettes.
    selection.salt = result.rounds;
    const std::uint64_t seed =
        derand::select_seed(cluster, objective, family, selection).seed;
    cluster.charge("coloring/commit", 2, 0);
    for (const auto& [v, c] : sticking(g, color, palette, family.at(seed))) {
      color[v] = c;
      --remaining;
      for (NodeId u : g.neighbors(v)) {
        auto& options = palette[u];
        options.erase(std::remove(options.begin(), options.end(), c),
                      options.end());
      }
    }
  }

  result.color.assign(color.begin(), color.end());
  DMPC_CHECK(graph::is_proper_coloring(g, result.color));
  std::uint32_t max_color = 0;
  for (NodeId v = 0; v < n; ++v) max_color = std::max(max_color, color[v]);
  result.colors_used = max_color + 1;
  result.metrics = cluster.metrics();
  return result;
}

}  // namespace dmpc::apps
