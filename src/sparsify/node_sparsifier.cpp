#include "sparsify/node_sparsifier.hpp"

#include <algorithm>
#include <cmath>

#include "derand/seed_search.hpp"
#include "hash/kwise.hpp"
#include "mpc/distribution.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"

namespace dmpc::sparsify {

using graph::Graph;
using graph::NodeId;

namespace {

// Per-owner goodness windows, mirroring the edge sparsifier (see its header
// comment for why windows are per owner and binomial-sigma sized):
//  - type-Q owners (each Q-node's Q-neighbor list) bound the kept COUNT from
//    above (Lemma 17 / Invariant (i));
//  - type-B owners (each B-node's Q-neighbor list) bound the kept 1/d(u)
//    MASS from below (Lemma 18 / Invariant (ii));
//  - one global two-sided COUNT window over all of Q_{j-1} rejects the
//    degenerate all-keep / all-drop seeds at finite n.
struct NodeWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool weighted = false;
  std::uint64_t lo = 0;       ///< Count lower bound (global window).
  std::uint64_t hi = 0;       ///< Count upper bound.
  double w_lo = 0.0;          ///< Weighted lower bound (type B).
  std::uint64_t count() const { return end - begin; }
};

struct NodeWindowSet {
  std::vector<NodeId> items;
  std::vector<double> weights;  ///< Aligned 1/d(u); 0 for count windows.
  std::vector<NodeWindow> owners;
};

double count_half_width(double q, double mult, std::uint64_t count) {
  return mult *
         (std::sqrt(static_cast<double>(count) * q * (1.0 - q)) + 1.0);
}

void set_count_window(NodeWindow& w, double q, double mult, bool two_sided) {
  const double mean = q * static_cast<double>(w.count());
  const double slack = count_half_width(q, mult, w.count());
  w.hi = static_cast<std::uint64_t>(std::min<double>(
      static_cast<double>(w.count()), std::ceil(mean + slack)));
  if (two_sided) {
    const double lo_real = mean - slack;
    w.lo = lo_real <= 0 ? 0 : static_cast<std::uint64_t>(std::floor(lo_real));
  } else {
    w.lo = 0;
  }
}

void set_weight_window(NodeWindow& w, const NodeWindowSet& set, double q,
                       double mult) {
  // Weighted Hoeffding scale: sigma^2 = q(1-q) * sum w_i^2; slack adds one
  // max-weight term for the +1 discretization.
  double mass = 0.0, sq = 0.0, wmax = 0.0;
  for (std::uint64_t i = w.begin; i < w.end; ++i) {
    mass += set.weights[i];
    sq += set.weights[i] * set.weights[i];
    wmax = std::max(wmax, set.weights[i]);
  }
  const double slack = mult * (std::sqrt(q * (1.0 - q) * sq) + wmax);
  w.w_lo = std::max(0.0, q * mass - slack);
}

// Range form of the stage objective: the flat item array (widened to the
// 64-bit hash domain) is the bound point universe, so each candidate seed is
// one lane-parallel PowerTable sweep plus a hash-free window scan. Weighted
// masses accumulate in ascending item order — the exact floating-point order
// of the scalar path. Windows are read by pointer so the escalation loop can
// rewrite the bounds without rebuilding the table.
class NodeStageObjective final : public derand::RangeObjective {
 public:
  NodeStageObjective(const hash::KWiseFamily& family, std::uint64_t cutoff,
                     const NodeWindowSet& windows)
      : cutoff_(cutoff),
        windows_(&windows),
        points_(windows.items.begin(), windows.items.end()) {
    bind_points(family, points_.data(), points_.size());
  }

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t /*seed*/,
                          const std::uint64_t* values) const override {
    std::uint64_t good = 0;
    for (std::uint64_t o = range_begin; o < range_end; ++o) {
      const NodeWindow& w = windows_->owners[o];
      if (!w.weighted) {
        std::uint64_t kept = 0;
        for (std::uint64_t i = w.begin; i < w.end; ++i) {
          if (values[i] < cutoff_) ++kept;
        }
        if (kept >= w.lo && kept <= w.hi) ++good;
      } else {
        double mass = 0.0;
        for (std::uint64_t i = w.begin; i < w.end; ++i) {
          if (values[i] < cutoff_) {
            mass += windows_->weights[i];
          }
        }
        if (mass >= w.w_lo) ++good;
      }
    }
    return static_cast<double>(good);
  }

  std::uint64_t range_count() const override { return windows_->owners.size(); }
  std::uint64_t term_count() const override { return windows_->owners.size(); }

 private:
  std::uint64_t cutoff_;
  const NodeWindowSet* windows_;
  std::vector<std::uint64_t> points_;  ///< items widened to the hash domain
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

  const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_nodes());
  hash::KWiseFamily family(domain, domain, config.hash_k);
  const auto cutoff =
      static_cast<std::uint64_t>(q * static_cast<double>(family.p()));

  auto q_degree = [&](NodeId v) {
    std::uint32_t d = 0;
    for (NodeId u : g.neighbors(v)) {
      if (alive[u] && result.in_Qprime[u]) ++d;
    }
    return d;
  };
  auto max_q_degree = [&]() {
    std::uint32_t best = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (alive[v] && result.in_Qprime[v]) best = std::max(best, q_degree(v));
    }
    return best;
  };

  // Baselines for the invariant measurements.
  std::vector<std::uint32_t> deg_q0(g.num_nodes(), 0);
  std::vector<double> hmass_q0(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!alive[v]) continue;
    for (NodeId u : g.neighbors(v)) {
      if (alive[u] && good.in_Q0[u]) {
        ++deg_q0[v];
        hmass_q0[v] += 1.0 / static_cast<double>(deg[u]);
      }
    }
  }

  std::uint32_t stage = 0;
  std::uint32_t extra_used = 0;
  while (true) {
    const bool planned_stage = stage < planned;
    if (!planned_stage) {
      if (max_q_degree() <= params.degree_cap() ||
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

    // --- Distribute neighbor lists into per-owner windows. ---
    NodeWindowSet windows;
    std::vector<std::uint64_t> counts(g.num_nodes(), 0);
    double mult = kWindowSlack;
    auto append = [&](NodeId owner, bool weighted) {
      NodeWindow w;
      w.begin = windows.items.size();
      for (NodeId u : g.neighbors(owner)) {
        if (alive[u] && result.in_Qprime[u]) {
          windows.items.push_back(u);
          windows.weights.push_back(1.0 / static_cast<double>(deg[u]));
        }
      }
      w.end = windows.items.size();
      if (w.count() == 0) return;
      if (!weighted) counts[owner] = w.count();
      w.weighted = weighted;
      if (weighted) {
        set_weight_window(w, windows, q, mult);
      } else {
        set_count_window(w, q, mult, /*two_sided=*/false);
      }
      windows.owners.push_back(w);
    };
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (alive[v] && result.in_Qprime[v]) append(v, /*weighted=*/false);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (alive[v] && good.in_B[v]) append(v, /*weighted=*/true);
    }
    {
      // Global two-sided window over Q_{j-1} itself.
      NodeWindow w;
      w.begin = windows.items.size();
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (alive[v] && result.in_Qprime[v]) {
          windows.items.push_back(v);
          windows.weights.push_back(0.0);
        }
      }
      w.end = windows.items.size();
      if (w.count() > 0) {
        set_count_window(w, q, mult, /*two_sided=*/true);
        windows.owners.push_back(w);
      }
    }
    mpc::build_machine_groups(cluster, counts, group, /*arity=*/1,
                              "mis_sparsify/distribute");

    // --- Derandomize with adaptive window escalation. ---
    derand::SearchResult committed;
    std::uint64_t total_trials = 0;
    // One objective (and one PowerTable build) per stage: escalation only
    // rewrites the window bounds, read through the NodeWindowSet pointer.
    NodeStageObjective objective(family, cutoff, windows);
    for (std::uint32_t attempt = 0;; ++attempt) {
      DMPC_CHECK_MSG(attempt <= kMaxEscalations,
                     "node sparsifier: window escalation cap reached");
      if (attempt > 0) {
        mult *= 2.0;
        const auto last = windows.owners.size() - 1;
        for (std::size_t i = 0; i < windows.owners.size(); ++i) {
          NodeWindow& w = windows.owners[i];
          if (w.weighted) {
            set_weight_window(w, windows, q, mult);
          } else {
            set_count_window(w, q, mult, /*two_sided=*/i == last);
          }
        }
      }
      derand::SearchOptions opts;
      opts.threshold = static_cast<double>(windows.owners.size());
      opts.max_trials = kTrialsPerWindow;
      opts.label = "mis_sparsify/seed";
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
        trace->instant("mis_sparsify/escalate",
                       {obs::arg("stage", static_cast<std::uint64_t>(stage)),
                        obs::arg("window_multiplier", mult * 2.0)});
      }
      DMPC_DEBUG("node sparsify stage " << stage << ": escalating window to x"
                                        << mult * 2.0);
    }

    // --- Apply: Q_j = {v in Q_{j-1} : h(v) < cutoff}. ---
    const auto fn = family.at(committed.seed);
    std::vector<bool> next = result.in_Qprime;
    std::uint64_t kept_nodes = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!next[v]) continue;
      if (fn.raw(v) >= cutoff) {
        next[v] = false;
      } else {
        ++kept_nodes;
      }
    }
    if (kept_nodes == 0) {
      // Finite-n guard: never sparsify to the empty set — keep Q_{j-1} and
      // stop; the selection step's space check remains the arbiter.
      DMPC_WARN("node sparsify stage " << stage
                                       << " would empty Q; stopping early");
      break;
    }
    result.in_Qprime = std::move(next);

    // --- Measure the paper-form invariants (Lemmas 17 & 18). ---
    StageReport report;
    report.stage = stage;
    report.seed = committed.seed;
    report.trials = total_trials;
    report.window_multiplier = mult;
    report.machines = windows.owners.size();
    const double shrink = std::pow(q, static_cast<double>(stage));
    const double cls_lower = params.class_lower(good.cls);
    double worst_deg_ratio = 0.0;
    double worst_h_ratio = 2.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!alive[v]) continue;
      if (result.in_Qprime[v] && deg_q0[v] > 0) {
        const double bound =
            shrink * static_cast<double>(deg_q0[v]) + params.pow_nd(3.0);
        worst_deg_ratio =
            std::max(worst_deg_ratio,
                     static_cast<double>(q_degree(v)) / bound);
      }
      if (good.in_B[v] && hmass_q0[v] > 0) {
        double mass = 0.0;
        for (NodeId u : g.neighbors(v)) {
          if (alive[u] && result.in_Qprime[u]) {
            mass += 1.0 / static_cast<double>(deg[u]);
          }
        }
        const double expect = shrink * hmass_q0[v];
        if (expect * cls_lower >= 1.0) {  // above measurement resolution
          worst_h_ratio = std::min(worst_h_ratio, mass / expect);
        }
      }
    }
    report.invariant_degree_ratio = worst_deg_ratio;
    report.invariant_xv_ratio = worst_h_ratio;
    report.max_degree_after = max_q_degree();
    if (stage_span.active()) {
      stage_span.arg("candidate_seeds", report.trials);
      stage_span.arg("committed_seed", report.seed);
      stage_span.arg("kept_nodes", kept_nodes);
      stage_span.arg("window_multiplier", report.window_multiplier);
    }
    result.stages.push_back(report);
  }
  result.max_q_degree = max_q_degree();
  return result;
}

}  // namespace dmpc::sparsify
