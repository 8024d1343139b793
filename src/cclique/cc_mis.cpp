#include "cclique/cc_mis.hpp"

#include <algorithm>
#include <cmath>

#include "graph/transforms.hpp"
#include "graph/validate.hpp"
#include "hash/small_family.hpp"
#include "lowdeg/coloring.hpp"
#include "lowdeg/phase_compression.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace dmpc::cclique {

using graph::Graph;
using graph::NodeId;

namespace {

std::uint32_t cc_phases(std::uint64_t n, std::uint32_t max_degree) {
  // Per-node memory is O(n): l = floor(log n / (2 log Delta)), clamped.
  const double log_n = std::log(static_cast<double>(std::max<std::uint64_t>(n, 4)));
  const double log_d =
      std::log(static_cast<double>(std::max<std::uint32_t>(max_degree, 2)));
  const auto l = static_cast<std::uint32_t>(std::floor(log_n / (2.0 * log_d)));
  return std::clamp<std::uint32_t>(l, 1, lowdeg::kMaxPhases);
}

/// Shared stage loop; `rounds_per_stage` distinguishes ours (O(1)) from the
/// [15]-style baseline (Theta(log n) per Luby phase, i.e. per stage of 1).
CcMisResult run_cc_mis(const Graph& g, std::uint32_t phases,
                       std::uint64_t rounds_per_stage,
                       const std::string& label) {
  CongestedClique cc(std::max<std::uint64_t>(g.num_nodes(), 1));
  CcMisResult result;
  result.in_set.assign(g.num_nodes(), false);
  result.phases_per_stage = phases;
  if (g.num_nodes() == 0) return result;
  std::vector<bool> alive(g.num_nodes(), true);

  if (g.num_edges() > 0) {
    // Preprocessing. With Delta^2 = O(n), a node collects its 2-hop
    // neighborhood in O(1) rounds (Lenzen) and a distance-2 coloring gives
    // O(log Delta)-bit per-phase seeds with l > 1 compressed phases. For
    // larger Delta (the Delta = omega(n^{1/3}) regime of Corollary 2) the
    // 2-hop ball exceeds node memory; there log Delta = Theta(log n), so
    // phases use node ids directly as "colors" (O(log n)-bit seeds) with
    // l = 1, and the O(log n) = O(log Delta) stage bound still holds.
    const std::uint64_t two_hop =
        static_cast<std::uint64_t>(g.max_degree()) *
        std::max<std::uint32_t>(g.max_degree(), 1);
    const bool can_gather_two_hop = two_hop <= 4 * cc.nodes();
    std::vector<std::uint32_t> color(g.num_nodes());
    std::uint32_t num_colors;
    if (can_gather_two_hop) {
      cc.check_node_memory(two_hop, label + "/2hop");
      cc.charge_lenzen_routing(std::min<std::uint64_t>(
                                   2 * g.num_edges() * g.max_degree(),
                                   cc.nodes() * cc.nodes()),
                               label + "/2hop");
      const auto coloring = lowdeg::distance2_coloring_raw(g);
      cc.charge_rounds(std::max<std::uint32_t>(coloring.reduction_steps, 1),
                       label + "/coloring");
      color = coloring.color;
      num_colors = coloring.num_colors;
    } else {
      phases = 1;
      result.phases_per_stage = 1;
      for (NodeId v = 0; v < g.num_nodes(); ++v) color[v] = v;
      num_colors = std::max<NodeId>(g.num_nodes(), 1);
    }

    hash::SmallFamily family(std::max<std::uint32_t>(num_colors, 2));
    hash::FunctionSequence sequence(family, phases, lowdeg::kPerPhaseCap);
    const std::uint64_t limit = std::min<std::uint64_t>(
        lowdeg::kSequenceBudget, sequence.sequence_count());

    while (graph::alive_edge_count(g, alive) > 0) {
      DMPC_CHECK_MSG(result.stages < lowdeg::kMaxStages, "stage cap exceeded");
      // Stage body reuses the §5 machinery; only the round charge differs
      // between the two algorithms, so charge on the clique directly.
      const auto stage = lowdeg::best_of_candidates(
          g, alive, limit, exec::Executor::serial(), [&](std::uint64_t t) {
            return lowdeg::simulate_stage(g, alive, color, sequence,
                                          sequence.diverse(t));
          });
      DMPC_CHECK_MSG(!stage.independent.empty(), "CC stage made no progress");
      for (NodeId v : stage.independent) result.in_set[v] = true;
      cc.charge_rounds(rounds_per_stage, label + "/stage");
      ++result.stages;
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) result.in_set[v] = true;
  }
  DMPC_CHECK(graph::is_maximal_independent_set(g, result.in_set));
  result.metrics = cc.metrics();
  return result;
}

}  // namespace

CcMisResult cc_mis(const Graph& g) {
  const std::uint32_t phases = cc_phases(g.num_nodes(), g.max_degree());
  // One stage = one candidate-evaluation + aggregation + ball update: O(1).
  return run_cc_mis(g, phases, /*rounds_per_stage=*/3, "cc_mis");
}

CcMisResult cc_mis_censor_hillel(const Graph& g) {
  // Baseline: one Luby phase per derandomization step, seed fixed by
  // bit-by-bit voting over its Theta(log n) bits — Theta(log n) rounds per
  // phase (paper §1.1.2 / [15]).
  const auto seed_bits = static_cast<std::uint64_t>(
      2 * ceil_log2(std::max<std::uint64_t>(g.num_nodes(), 4)));
  return run_cc_mis(g, /*phases=*/1,
                    /*rounds_per_stage=*/seed_bits, "cc_baseline");
}

CcMatchingResult cc_matching(const Graph& g) {
  CcMatchingResult result;
  if (g.num_edges() == 0) return result;
  const Graph lg = graph::line_graph(g);
  result.mis = cc_mis(lg);
  result.matching = graph::line_mis_matching(g, result.mis.in_set);
  return result;
}

}  // namespace dmpc::cclique
