#include "sparsify/edge_sparsifier.hpp"

#include <algorithm>
#include <cmath>

#include "derand/seed_search.hpp"
#include "hash/kwise.hpp"
#include "mpc/distribution.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"

namespace dmpc::sparsify {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

// A per-owner goodness window over the flat item array. Type-A owners
// (every node's incident list) carry an upper bound on the kept count —
// that is the quantity Lemma 10 sums into Invariant (i). Type-B owners
// (X(v) lists of good nodes) carry a lower bound — Lemma 11 / Invariant
// (ii). The owner total is the sum over the owner's group machines, one
// Lemma-4 aggregation away, so evaluating per owner costs the same O(1)
// rounds as per machine.
enum class Side { kUpper, kLower, kBoth };

struct OwnerWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  Side side = Side::kUpper;
  std::uint64_t count() const { return end - begin; }
};

struct WindowSet {
  std::vector<EdgeId> items;
  std::vector<OwnerWindow> owners;
};

// Window half-width for a list of `count` items kept independently with
// probability q: mult * (binomial sigma + 1). The paper's asymptotic form
// n^{0.1 delta} sqrt(e_x) is strictly wider for large n (it absorbs the
// weaker tails of c-wise independence); the binomial form is the right
// scale at finite n and makes the window actually bite — see DESIGN.md.
double half_width(double q, double mult, std::uint64_t count) {
  const double sigma =
      std::sqrt(static_cast<double>(count) * q * (1.0 - q));
  return mult * (sigma + 1.0);
}

void set_window(OwnerWindow& w, double q, double mult) {
  const double mean = q * static_cast<double>(w.count());
  const double slack = half_width(q, mult, w.count());
  if (w.side == Side::kLower) {
    w.lo = 0;
    w.hi = w.count();
  } else {
    w.hi = static_cast<std::uint64_t>(std::min<double>(
        static_cast<double>(w.count()), std::ceil(mean + slack)));
  }
  if (w.side == Side::kUpper) {
    w.lo = 0;
  } else {
    const double lo_real = mean - slack;
    w.lo = lo_real <= 0 ? 0 : static_cast<std::uint64_t>(std::floor(lo_real));
  }
}

/// Objective: number of good owners under the hash seed (threshold = all).
//
// Range form: the flat item array is the bound point universe (EdgeId is
// already 64-bit), so each candidate seed costs one lane-parallel PowerTable
// sweep and a branchy-but-hash-free window scan over the precomputed raw
// values. Windows are read by pointer: the escalation loop rewrites lo/hi in
// place without rebuilding the table (the item universe never changes within
// a stage).
class StageObjective final : public derand::RangeObjective {
 public:
  StageObjective(const hash::KWiseFamily& family, std::uint64_t cutoff,
                 const WindowSet& windows)
      : cutoff_(cutoff), windows_(&windows) {
    bind_points(family, windows.items.data(), windows.items.size());
  }

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t /*seed*/,
                          const std::uint64_t* values) const override {
    std::uint64_t good = 0;
    for (std::uint64_t o = range_begin; o < range_end; ++o) {
      const OwnerWindow& w = windows_->owners[o];
      std::uint64_t kept = 0;
      for (std::uint64_t idx = w.begin; idx < w.end; ++idx) {
        if (values[idx] < cutoff_) ++kept;
      }
      if (kept >= w.lo && kept <= w.hi) ++good;
    }
    return static_cast<double>(good);
  }

  std::uint64_t range_count() const override { return windows_->owners.size(); }
  std::uint64_t term_count() const override { return windows_->owners.size(); }

 private:
  std::uint64_t cutoff_;
  const WindowSet* windows_;
};

void append_owner(WindowSet& set, const std::vector<EdgeId>& owner_items,
                  double q, double mult, Side side) {
  if (owner_items.empty()) return;
  OwnerWindow w;
  w.begin = set.items.size();
  set.items.insert(set.items.end(), owner_items.begin(), owner_items.end());
  w.end = set.items.size();
  w.side = side;
  set_window(w, q, mult);
  set.owners.push_back(w);
}

}  // namespace

StageInvariants worst_invariants(const std::vector<StageReport>& stages) {
  StageInvariants worst;
  for (const StageReport& s : stages) {
    worst.degree_ratio = std::max(worst.degree_ratio, s.invariant_degree_ratio);
    worst.xv_ratio = std::min(worst.xv_ratio, s.invariant_xv_ratio);
    worst.window_multiplier =
        std::max(worst.window_multiplier, s.window_multiplier);
  }
  return worst;
}

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
  std::vector<std::uint64_t> xv0_size(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) xv0_size[v] = good.xv[v].size();

  const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_edges());
  hash::KWiseFamily family(domain, domain, config.hash_k);
  const auto cutoff = static_cast<std::uint64_t>(
      q * static_cast<double>(family.p()));

  std::uint32_t stage = 0;
  std::uint32_t extra_used = 0;
  while (true) {
    const bool planned_stage = stage < planned;
    if (!planned_stage) {
      // §3.3 requires degrees <= 2 n^{4 delta} in E*; at finite n the
      // window slack can leave an overshoot, fixed by extra stages.
      const auto deg_now = graph::masked_degrees(g, result.in_Estar, cluster.executor());
      const std::uint32_t max_deg =
          *std::max_element(deg_now.begin(), deg_now.end());
      if (max_deg <= params.degree_cap() ||
          extra_used >= kExtraStageCap) {
        break;
      }
      ++extra_used;
    }
    ++stage;
    // Each stage rewrites the survivor set from the previous one, so it is a
    // recovery-safe boundary for phase-granularity checkpoints.
    cluster.mark_phase("sparsify/stage", g.num_edges());
    obs::Span stage_span(cluster.trace(), "sparsify/stage");
    stage_span.arg("stage", static_cast<std::uint64_t>(stage));

    // --- Distribute: type-A machine groups (every node's incident E_{j-1}
    // list, upper windows) and type-B groups (X(v) ∩ E_{j-1} for v in B,
    // lower windows). ---
    WindowSet windows;
    std::vector<std::uint64_t> counts(g.num_nodes(), 0);
    double mult = kWindowSlack;
    {
      std::vector<std::vector<EdgeId>> incident(g.num_nodes());
      std::vector<EdgeId> all_edges;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!result.in_Estar[e]) continue;
        incident[g.edge(e).u].push_back(e);
        incident[g.edge(e).v].push_back(e);
        all_edges.push_back(e);
      }
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        counts[v] = incident[v].size();
        append_owner(windows, incident[v], q, mult, Side::kUpper);
      }
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (good.in_B[v]) {
          append_owner(windows, result.xv_star[v], q, mult, Side::kLower);
        }
      }
      // Global window (one Lemma-4 aggregation): the total kept count must
      // track q * |E_{j-1}|. At finite n the per-owner windows can all be
      // trivially wide (counts of a few dozen admit no non-trivial
      // satisfiable window), and without this constraint the degenerate
      // all-keep / all-drop polynomials would count as good; the global
      // window rejects them and guarantees per-stage progress.
      append_owner(windows, all_edges, q, mult, Side::kBoth);
    }
    mpc::build_machine_groups(cluster, counts, group, /*arity=*/2,
                              "sparsify/distribute");

    // --- Derandomize the stage with adaptive window escalation. ---
    derand::SearchResult committed;
    std::uint64_t total_trials = 0;
    // One objective (and one PowerTable build) per stage: escalation only
    // widens lo/hi, which the objective reads through the WindowSet pointer.
    StageObjective objective(family, cutoff, windows);
    for (std::uint32_t attempt = 0;; ++attempt) {
      DMPC_CHECK_MSG(attempt <= kMaxEscalations,
                     "edge sparsifier: window escalation cap reached");
      if (attempt > 0) {
        mult *= 2.0;
        for (OwnerWindow& w : windows.owners) set_window(w, q, mult);
      }
      derand::SearchOptions opts;
      opts.threshold = static_cast<double>(windows.owners.size());
      opts.max_trials = kTrialsPerWindow;
      opts.label = "sparsify/seed";
      // Decorrelate committed functions across stages (see SearchOptions).
      opts.seed_base = 0x9E3779B97F4A7C15ULL * (stage + 1);
      opts.seed_stride = 0xBF58476D1CE4E5B9ULL;
      const auto found =
          derand::try_find_seed(cluster, objective, family.seed_count(), opts);
      total_trials += found ? found->trials : kTrialsPerWindow;
      if (found) {
        committed = *found;
        break;
      }
      if (auto* trace = cluster.trace(); obs::enabled(trace)) {
        trace->instant("sparsify/escalate",
                       {obs::arg("stage", static_cast<std::uint64_t>(stage)),
                        obs::arg("window_multiplier", mult * 2.0)});
      }
      DMPC_DEBUG("sparsify stage " << stage << ": escalating window to x"
                                   << mult * 2.0);
    }

    // --- Apply the committed hash: E_j = {e in E_{j-1} : h(e) < cutoff}. ---
    const auto fn = family.at(committed.seed);
    StageReport report;
    report.stage = stage;
    report.seed = committed.seed;
    report.trials = total_trials;
    report.window_multiplier = mult;
    report.machines = windows.owners.size();
    report.edges_before = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (result.in_Estar[e]) ++report.edges_before;
    }
    std::vector<bool> next = result.in_Estar;
    EdgeId kept = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!next[e]) continue;
      if (fn.raw(e) >= cutoff) {
        next[e] = false;
      } else {
        ++kept;
      }
    }
    if (kept == 0) {
      // Finite-n guard: never sparsify to the empty set — keep E_{j-1} and
      // stop; the selection step's space check remains the arbiter.
      DMPC_WARN("edge sparsify stage " << stage
                                       << " would empty E; stopping early");
      break;
    }
    result.in_Estar = std::move(next);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!good.in_B[v]) continue;
      auto& list = result.xv_star[v];
      std::erase_if(list, [&](EdgeId e) { return !result.in_Estar[e]; });
    }

    // --- Measure the paper-form invariants (Lemmas 10 & 11). ---
    const auto deg_now = graph::masked_degrees(g, result.in_Estar, cluster.executor());
    const double shrink = std::pow(q, static_cast<double>(stage));
    report.edges_after = kept;
    report.max_degree_after =
        *std::max_element(deg_now.begin(), deg_now.end());
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
      if (!good.in_B[v] || xv0_size[v] == 0) continue;
      const double expect = shrink * static_cast<double>(xv0_size[v]);
      if (expect < 1.0) continue;  // below resolution — nothing to measure
      worst_xv_ratio = std::min(
          worst_xv_ratio,
          static_cast<double>(result.xv_star[v].size()) / expect);
    }
    report.invariant_xv_ratio = worst_xv_ratio;
    if (stage_span.active()) {
      stage_span.arg("candidate_seeds", report.trials);
      stage_span.arg("committed_seed", report.seed);
      stage_span.arg("edges_before",
                     static_cast<std::uint64_t>(report.edges_before));
      stage_span.arg("edges_after",
                     static_cast<std::uint64_t>(report.edges_after));
      stage_span.arg("window_multiplier", report.window_multiplier);
    }
    result.stages.push_back(report);
  }
  {
    const auto deg_final = graph::masked_degrees(g, result.in_Estar, cluster.executor());
    result.max_degree = *std::max_element(deg_final.begin(), deg_final.end());
  }
  return result;
}

}  // namespace dmpc::sparsify
