// bench_runner — the experiment registry: every experiment E1..E20 is
// defined once, in the table at the bottom of this file. Runs any subset
// and writes one machine-readable BENCH_<EXP>.json artifact per experiment
// (render them as markdown tables with repro_report).
//
//   ./bench_runner --experiments=e1,e2,e8 --out=artifacts
//                  [--quick] [--threads=1] [--commit=<sha>] [--progress]
//   ./bench_runner --experiments=all --out=artifacts --quick
//
// Each artifact uses the bench_json.hpp envelope plus:
//   "axis":   name of the sweep variable ("n", "delta", "family", ...)
//   "threads": host threads used for Solver-driven experiments
//   "points": [{"axis_value": <int|string>,
//               "model":    {<integer-exact, thread-independent values>},
//               "registry": {<model section of this point's own metrics
//                             registry (obs/metrics_registry.hpp)>},
//               "wall":     {"wall_ms", "peak_rss_bytes"},
//               "profile":  {<per-round load-skew timeline; E1/E2 only
//                             (obs/profiler.hpp); model-deterministic and
//                             gated by tools/trace_analyze --gate>},
//               "certificate": "ok P/N" (E1/E2 only: passed/total claims of
//                             a certify=full re-solve)}, ...]
// E19/E20 points carry no registry block; E19 sweep points add "rss".
// Points whose axis_value is a string belong to a secondary series of the
// experiment (e.g. E6's n-sweep at Delta=4); scaling fits skip them.
//
// Determinism contract: for a fixed (--experiments, --quick) configuration
// the "model" and "registry" subtrees are byte-identical across runs and
// across --threads values; "wall", "rss" and "toolchain" are not. tools/
// scaling_check gates only on model fields, fitting the theorem envelopes
// (E1/E2: rounds vs log n; E6: rounds vs log Delta; E8: peak load <= S;
// E19: build RSS bound; E20: recovery identity) and comparing against
// bench/baselines/.
//
// Fraction-valued quantities are stored as parts-per-million integers
// (bench::ppm) so the golden subtrees contain no floats.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "apps/reductions.hpp"
#include "baselines/israeli_itai.hpp"
#include "baselines/luby_matching.hpp"
#include "baselines/luby_mis.hpp"
#include "bench_json.hpp"
#include "cclique/cc_mis.hpp"
#include "congest/congest_mis.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "lowdeg/lowdeg_solver.hpp"
#include "matching/det_matching.hpp"
#include "mis/det_mis.hpp"
#include "mpc/cluster.hpp"
#include "mpc/io_faults.hpp"
#include "mpc/lowlevel.hpp"
#include "mpc/primitives.hpp"
#include "mpc/shard_format.hpp"
#include "mpc/storage.hpp"
#include "obs/events.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/node_sparsifier.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dmpc::Json;
using dmpc::graph::EdgeId;
using dmpc::graph::Graph;
using dmpc::graph::NodeId;

struct RunConfig {
  bool quick = false;
  bool progress = false;
  std::uint32_t threads = 1;
};

// With --progress, every solver-driven sweep point streams throttled
// lifecycle lines to stderr (full runs take minutes; this shows which
// point is live). The bus is deliberately process-long: it never touches
// the registry or the report's model/registry blocks, so artifacts stay
// byte-identical with the flag on or off.
dmpc::obs::EventBus* progress_bus(const RunConfig& cfg) {
  if (!cfg.progress) return nullptr;
  static dmpc::obs::ProgressLineSink sink(&std::cerr);
  static dmpc::obs::EventBus bus;
  static const bool subscribed = bus.subscribe(&sink);
  (void)subscribed;
  return &bus;
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The standard sweep graph: G(n, 8n) — dense enough that the sparsification
/// path engages, sparse enough to sweep n comfortably. The seed is distinct
/// per (experiment, n) so rows are reproducible but not identical.
Graph sweep_gnm(std::uint64_t n, std::uint64_t experiment) {
  return dmpc::graph::gnm(static_cast<NodeId>(n),
                          static_cast<EdgeId>(8 * n),
                          experiment * 1000003ULL + n * 10007ULL + 1);
}

std::uint64_t set_size(const std::vector<bool>& in_set) {
  return static_cast<std::uint64_t>(
      std::count(in_set.begin(), in_set.end(), true));
}

/// Report JSON with the recovery ledger zeroed: the identity fault recovery
/// promises is "everything except the recovery block".
std::string comparable_report(const dmpc::MisSolution& solution) {
  auto report = solution.report;
  report.recovery = dmpc::mpc::RecoveryStats{};
  return to_json(report).dump();
}

/// Wraps one sweep point in its own metrics registry scope, so the point's
/// "registry" block is exactly what this point charged.
class PointScope {
 public:
  PointScope() : t0_(Clock::now()) {}

  /// Assemble the point row. `model` carries the experiment's own integer
  /// fields; the point's registry and wall stats are appended here.
  Json finish(Json axis_value, Json model) {
    const double wall_ms = ms_since(t0_);
    return Json::object()
        .set("axis_value", std::move(axis_value))
        .set("model", std::move(model))
        .set("registry",
             dmpc::obs::to_json_section(metrics_.registry().snapshot(),
                                        dmpc::obs::MetricSection::kModel,
                                        /*include_zero=*/false))
        .set("wall", dmpc::bench::wall_stats(wall_ms));
  }

 private:
  dmpc::obs::RegistryScope metrics_;
  Clock::time_point t0_;
};

std::vector<std::uint64_t> sweep_n(const RunConfig& cfg) {
  if (cfg.quick) return {256, 512, 1024, 2048};
  return {256, 512, 1024, 2048, 4096, 8192};
}

dmpc::SolveOptions solver_options(const RunConfig& cfg) {
  dmpc::SolveOptions options;
  options.threads = cfg.threads;
  options.events = progress_bus(cfg);
  return options;
}

// ---------------------------------------------------------------- E1 / E2

/// Re-solve `g` in checked mode (certify=full, docs/ROBUSTNESS.md) and
/// summarize the certificate as "ok P/N": passed/total claims, skipped
/// claims counted in N only. A failing claim throws CertificationError,
/// which fails the run.
std::string certify(const RunConfig& cfg, const Graph& g, bool matching) {
  auto options = solver_options(cfg);
  options.certify = dmpc::verify::CertifyMode::kFull;
  const dmpc::Solver solver(options);
  if (matching) {
    (void)solver.maximal_matching(g);
  } else {
    (void)solver.mis(g);
  }
  const auto& claims = solver.certificate().claims;
  const auto passed =
      std::count_if(claims.begin(), claims.end(), [](const auto& claim) {
        return claim.verdict == dmpc::verify::Verdict::kPass;
      });
  return "ok " + std::to_string(passed) + "/" + std::to_string(claims.size());
}

Json e1_points(const RunConfig& cfg) {
  Json points = Json::array();
  for (const auto n : sweep_n(cfg)) {
    const auto g = sweep_gnm(n, /*experiment=*/1);
    PointScope scope;
    auto options = solver_options(cfg);
    options.profile = true;
    const auto solution = dmpc::Solver(options).maximal_matching(g);
    const auto& r = solution.report;
    Json point = scope.finish(
        Json(n), Json::object()
                     .set("iterations", r.iterations)
                     .set("mpc_rounds", r.metrics.rounds())
                     .set("peak_load", r.metrics.peak_machine_load())
                     .set("communication", r.metrics.total_communication())
                     .set("matching_size",
                          static_cast<std::uint64_t>(solution.matching.size())));
    point.set("profile", to_json(r.profile))
        .set("certificate", certify(cfg, g, /*matching=*/true));
    points.push(std::move(point));
  }
  return points;
}

Json e2_points(const RunConfig& cfg) {
  Json points = Json::array();
  for (const auto n : sweep_n(cfg)) {
    const auto g = sweep_gnm(n, /*experiment=*/2);
    PointScope scope;
    auto options = solver_options(cfg);
    options.profile = true;
    const auto solution = dmpc::Solver(options).mis(g);
    const auto& r = solution.report;
    Json point = scope.finish(
        Json(n), Json::object()
                     .set("iterations", r.iterations)
                     .set("mpc_rounds", r.metrics.rounds())
                     .set("peak_load", r.metrics.peak_machine_load())
                     .set("communication", r.metrics.total_communication())
                     .set("mis_size", set_size(solution.in_set)));
    point.set("profile", to_json(r.profile))
        .set("certificate", certify(cfg, g, /*matching=*/false));
    points.push(std::move(point));
  }
  return points;
}

// --------------------------------------------------------------------- E3

Json e3_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 2048;
  struct Fam {
    const char* name;
    Graph g;
  };
  std::vector<Fam> fams;
  fams.push_back({"gnm", dmpc::graph::gnm(n, 8 * n, 31)});
  fams.push_back({"power_law", dmpc::graph::power_law(n, 6 * n, 2.5, 32)});
  fams.push_back(
      {"bipartite", dmpc::graph::random_bipartite(n / 2, n / 2, 6 * n, 33)});
  fams.push_back({"regular", dmpc::graph::random_regular(n, 16, 34)});
  Json points = Json::array();
  for (const auto& fam : fams) {
    PointScope scope;
    dmpc::sparsify::Params params;
    params.n = fam.g.num_nodes();
    params.inv_delta = 16;
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = 1 << 16;
    cc.num_machines = 1 << 10;
    dmpc::mpc::Cluster cluster(cc);
    std::vector<bool> alive(fam.g.num_nodes(), true);
    const auto mm =
        dmpc::sparsify::select_matching_good_set(cluster, params, fam.g, alive);
    const auto mis =
        dmpc::sparsify::select_mis_good_set(cluster, params, fam.g, alive);
    points.push(scope.finish(
        Json(std::string(fam.name)),
        Json::object()
            .set("bound_half_delta_ppm", dmpc::bench::ppm(params.delta() / 2))
            .set("matching_b_mass_ppm",
                 dmpc::bench::ppm(double(mm.b_degree_mass) /
                                  double(2 * mm.alive_edges)))
            .set("mis_b_mass_ppm",
                 dmpc::bench::ppm(double(mis.b_degree_mass) /
                                  double(2 * mis.alive_edges)))));
  }
  return points;
}

// --------------------------------------------------------------------- E4

Json e4_points(const RunConfig& cfg) {
  Json points = Json::array();
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{512, 1024}
                : std::vector<std::uint64_t>{512, 1024, 2048};
  for (const std::uint64_t n : ns) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(n * n / 16), 41);
    PointScope scope;
    dmpc::sparsify::Params params;
    params.n = g.num_nodes();
    params.inv_delta = 8;
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = 1 << 16;
    cc.num_machines = 1 << 10;
    Json model = Json::object();
    {
      dmpc::mpc::Cluster cluster(cc);
      std::vector<bool> alive(g.num_nodes(), true);
      const auto good =
          dmpc::sparsify::select_matching_good_set(cluster, params, g, alive);
      const auto sp =
          dmpc::sparsify::sparsify_edges(cluster, params, g, good, {});
      double wi = 0, wii = 2;
      for (const auto& s : sp.stages) {
        wi = std::max(wi, s.invariant_degree_ratio);
        wii = std::min(wii, s.invariant_xv_ratio);
      }
      model.set("edges_stages", static_cast<std::uint64_t>(sp.stages.size()))
          .set("edges_max_degree", static_cast<std::uint64_t>(sp.max_degree))
          .set("edges_worst_deg_ratio_ppm", dmpc::bench::ppm(wi))
          .set("edges_worst_xv_ratio_ppm", dmpc::bench::ppm(wii));
    }
    {
      dmpc::mpc::Cluster cluster(cc);
      std::vector<bool> alive(g.num_nodes(), true);
      const auto good =
          dmpc::sparsify::select_mis_good_set(cluster, params, g, alive);
      const auto sp =
          dmpc::sparsify::sparsify_nodes(cluster, params, g, alive, good, {});
      double wi = 0, wii = 2;
      for (const auto& s : sp.stages) {
        wi = std::max(wi, s.invariant_degree_ratio);
        wii = std::min(wii, s.invariant_xv_ratio);
      }
      model.set("nodes_stages", static_cast<std::uint64_t>(sp.stages.size()))
          .set("nodes_max_degree", static_cast<std::uint64_t>(sp.max_degree))
          .set("nodes_worst_deg_ratio_ppm", dmpc::bench::ppm(wi))
          .set("nodes_worst_xv_ratio_ppm", dmpc::bench::ppm(wii));
    }
    model.set("degree_cap", params.degree_cap());
    points.push(scope.finish(Json(n), std::move(model)));
  }
  return points;
}

// --------------------------------------------------------------------- E5

Json e5_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 2048;
  struct Fam {
    const char* name;
    Graph g;
  };
  std::vector<Fam> fams;
  fams.push_back({"gnm", dmpc::graph::gnm(n, 8 * n, 51)});
  fams.push_back({"power_law", dmpc::graph::power_law(n, 6 * n, 2.5, 52)});
  fams.push_back({"regular", dmpc::graph::random_regular(n, 16, 53)});
  Json points = Json::array();
  for (const auto& fam : fams) {
    PointScope scope;
    Json model = Json::object();
    {
      const auto r = dmpc::matching::det_maximal_matching(fam.g, {});
      dmpc::RunningStats frac;
      for (const auto& rep : r.reports) frac.add(rep.progress_fraction);
      model.set("matching_min_removed_ppm", dmpc::bench::ppm(frac.min()))
          .set("matching_mean_removed_ppm", dmpc::bench::ppm(frac.mean()));
    }
    {
      const auto r = dmpc::mis::det_mis(fam.g, {});
      dmpc::RunningStats frac;
      for (const auto& rep : r.reports) frac.add(rep.progress_fraction);
      model.set("mis_min_removed_ppm", dmpc::bench::ppm(frac.min()))
          .set("mis_mean_removed_ppm", dmpc::bench::ppm(frac.mean()));
    }
    points.push(scope.finish(Json(std::string(fam.name)), std::move(model)));
  }
  return points;
}

// --------------------------------------------------------------------- E6

Json e6_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 4096;
  const std::vector<std::uint32_t> deltas =
      cfg.quick ? std::vector<std::uint32_t>{2, 4, 8, 16}
                : std::vector<std::uint32_t>{2, 4, 8, 16, 32};
  Json points = Json::array();
  for (const std::uint32_t d : deltas) {
    const auto g =
        dmpc::graph::random_regular(static_cast<NodeId>(n), d, 600 + d);
    PointScope scope;
    const auto low = dmpc::lowdeg::lowdeg_mis(g, {});
    const auto gen = dmpc::mis::det_mis(g, {});
    points.push(scope.finish(
        Json(static_cast<std::uint64_t>(d)),
        Json::object()
            .set("lowdeg_rounds", low.metrics.rounds())
            .set("stages", low.stages)
            .set("phases_per_stage",
                 static_cast<std::uint64_t>(low.phases_per_stage))
            .set("general_rounds", gen.metrics.rounds())));
  }
  // Secondary series: the log log n term at fixed Delta = 4.
  for (const std::uint64_t n : {512ull, 2048ull, 8192ull, 32768ull}) {
    const auto g =
        dmpc::graph::random_regular(static_cast<NodeId>(n), 4, 700 + n);
    PointScope scope;
    const auto low = dmpc::lowdeg::lowdeg_mis(g, {});
    const auto& by_label = low.metrics.by_label();
    const auto gather = by_label.find("lowdeg/gather");
    const std::uint64_t gather_rounds =
        gather == by_label.end() ? 0 : gather->second.rounds;
    points.push(scope.finish(Json("delta=4/n=" + std::to_string(n)),
                             Json::object()
                                 .set("lowdeg_rounds", low.metrics.rounds())
                                 .set("gather_rounds", gather_rounds)));
  }
  return points;
}

// --------------------------------------------------------------------- E7

Json e7_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 2048;
  Json points = Json::array();
  for (const std::uint32_t d : {2u, 4u, 8u, 16u, 32u}) {
    const auto g =
        dmpc::graph::random_regular(static_cast<NodeId>(n), d, 800 + d);
    PointScope scope;
    const auto ours = dmpc::cclique::cc_mis(g);
    const auto base = dmpc::cclique::cc_mis_censor_hillel(g);
    points.push(scope.finish(Json(static_cast<std::uint64_t>(d)),
                             Json::object()
                                 .set("ours_rounds", ours.metrics.rounds())
                                 .set("baseline_rounds", base.metrics.rounds())));
  }
  return points;
}

// --------------------------------------------------------------------- E8

Json e8_points(const RunConfig& cfg) {
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{512, 1024, 2048}
                : std::vector<std::uint64_t>{512, 1024, 2048, 4096};
  Json points = Json::array();
  for (const std::uint64_t n : ns) {
    for (const std::uint64_t eps_tenths : {3ull, 5ull, 7ull}) {
      const auto g = sweep_gnm(n, /*experiment=*/8);
      dmpc::mis::DetMisConfig config;
      config.eps = double(eps_tenths) / 10.0;
      const auto cc = dmpc::matching::cluster_config_for(config, g.num_nodes(),
                                                         g.num_edges());
      PointScope scope;
      auto options = solver_options(cfg);
      options.eps = config.eps;
      const auto solution = dmpc::Solver(options).mis(g);
      const auto& m = solution.report.metrics;
      points.push(scope.finish(
          Json(n), Json::object()
                       .set("eps_tenths", eps_tenths)
                       .set("s_budget", cc.machine_space)
                       .set("machines", cc.num_machines)
                       .set("peak_load", m.peak_machine_load())
                       .set("communication", m.total_communication())));
    }
  }
  return points;
}

// --------------------------------------------------------------------- E9

Json e9_points(const RunConfig& cfg) {
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{512, 1024}
                : std::vector<std::uint64_t>{512, 1024, 2048};
  Json points = Json::array();
  for (const std::uint64_t n : ns) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(8 * n), 1000 + n);
    PointScope scope;
    const auto mm = dmpc::matching::det_maximal_matching(g, {});
    const auto mis = dmpc::mis::det_mis(g, {});
    std::uint64_t mm_trials = 0, mis_trials = 0;
    for (const auto& r : mm.reports) mm_trials += r.selection_trials;
    for (const auto& r : mis.reports) mis_trials += r.selection_trials;
    const auto dense = dmpc::graph::gnm(
        static_cast<NodeId>(n), static_cast<EdgeId>(n * n / 16), 1100 + n);
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = 1 << 16;
    cc.num_machines = 1 << 10;
    dmpc::mpc::Cluster cluster(cc);
    dmpc::sparsify::Params params;
    params.n = dense.num_nodes();
    params.inv_delta = 8;
    std::vector<bool> alive(dense.num_nodes(), true);
    const auto good =
        dmpc::sparsify::select_matching_good_set(cluster, params, dense, alive);
    const auto sp =
        dmpc::sparsify::sparsify_edges(cluster, params, dense, good, {});
    std::uint64_t max_trials = 0;
    for (const auto& s : sp.stages) max_trials = std::max(max_trials, s.trials);
    points.push(scope.finish(
        Json(n), Json::object()
                     .set("matching_selection_trials", mm_trials)
                     .set("matching_iterations", mm.iterations)
                     .set("mis_selection_trials", mis_trials)
                     .set("mis_iterations", mis.iterations)
                     .set("sparsify_stage_trials_max", max_trials)));
  }
  return points;
}

// -------------------------------------------------------------------- E10

Json e10_points(const RunConfig& cfg) {
  Json points = Json::array();
  for (const auto n : sweep_n(cfg)) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(8 * n), 1200 + n);
    PointScope scope;
    points.push(scope.finish(
        Json(n),
        Json::object()
            .set("det_matching_iterations",
                 dmpc::matching::det_maximal_matching(g, {}).iterations)
            .set("luby_matching_iterations",
                 dmpc::baselines::luby_matching(g, 1).iterations)
            .set("israeli_itai_iterations",
                 dmpc::baselines::israeli_itai(g, 1).iterations)
            .set("det_mis_iterations", dmpc::mis::det_mis(g, {}).iterations)
            .set("luby_mis_iterations",
                 dmpc::baselines::luby_mis(g, 1).iterations)
            .set("luby_mis_pairwise_iterations",
                 dmpc::baselines::luby_mis_pairwise(g, 1).iterations)));
  }
  return points;
}

// -------------------------------------------------------------------- E11

Json e11_points(const RunConfig& cfg) {
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{512, 1024}
                : std::vector<std::uint64_t>{512, 1024, 2048};
  Json points = Json::array();
  for (const std::uint64_t n : ns) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(n * n / 16), 1300 + n);
    PointScope scope;
    dmpc::matching::DetMatchingConfig config;
    const auto cc = dmpc::matching::cluster_config_for(config, g.num_nodes(),
                                                       g.num_edges());
    auto unchecked = cc;
    unchecked.enforce_space = false;
    dmpc::mpc::Cluster cluster(unchecked);
    const auto params = dmpc::matching::params_for(config, g.num_nodes());
    std::vector<bool> alive(g.num_nodes(), true);
    const auto good =
        dmpc::sparsify::select_matching_good_set(cluster, params, g, alive);
    auto two_hop = [&](const std::vector<bool>& mask) {
      std::vector<std::vector<EdgeId>> inc(g.num_nodes());
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!mask[e]) continue;
        inc[g.edge(e).u].push_back(e);
        inc[g.edge(e).v].push_back(e);
      }
      std::uint64_t worst = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!good.in_B[v]) continue;
        std::uint64_t words = inc[v].size();
        for (EdgeId e : inc[v]) words += inc[g.other_endpoint(e, v)].size();
        worst = std::max(worst, 2 * words);
      }
      return worst;
    };
    const auto without = two_hop(good.in_E0);
    const auto sp =
        dmpc::sparsify::sparsify_edges(cluster, params, g, good, {});
    const auto with = two_hop(sp.in_Estar);
    points.push(scope.finish(
        Json(n),
        Json::object()
            .set("s_budget", cc.machine_space)
            .set("two_hop_without_estar", without)
            .set("two_hop_with_estar", with)
            .set("fits_without",
                 static_cast<std::uint64_t>(without <= cc.machine_space))
            .set("fits_with",
                 static_cast<std::uint64_t>(with <= cc.machine_space))));
  }
  return points;
}

// -------------------------------------------------------------------- E12

Json e12_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 2048;
  const auto m = static_cast<EdgeId>(cfg.quick ? 8192 : 16384);
  Json points = Json::array();
  for (const std::uint64_t b : {1ull, 4ull, 16ull, 64ull}) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n), m, 1500 + b);
    PointScope scope;
    dmpc::matching::DetMatchingConfig config;
    config.selection_batch = b;
    const auto r = dmpc::matching::det_maximal_matching(g, config);
    dmpc::RunningStats frac;
    for (const auto& rep : r.reports) frac.add(rep.progress_fraction);
    points.push(scope.finish(
        Json(b), Json::object()
                     .set("iterations", r.iterations)
                     .set("rounds", r.metrics.rounds())
                     .set("mean_removed_ppm", dmpc::bench::ppm(frac.mean()))));
  }
  // Secondary series: independence degree k of the hash family, on a dense
  // G(1024, 64k) so the sparsifier runs stages.
  for (const unsigned k : {2u, 4u, 8u}) {
    const auto g = dmpc::graph::gnm(1024, 65536, 1400 + k);
    PointScope scope;
    dmpc::matching::DetMatchingConfig config;
    config.sparsify.hash_k = k;
    const auto r = dmpc::matching::det_maximal_matching(g, config);
    points.push(scope.finish(Json("hash_k=" + std::to_string(k)),
                             Json::object()
                                 .set("iterations", r.iterations)
                                 .set("rounds", r.metrics.rounds())));
  }
  return points;
}

// -------------------------------------------------------------------- E13

Json e13_points(const RunConfig& cfg) {
  Json points = Json::array();
  dmpc::Rng rng(77);
  const std::uint64_t psum_n = cfg.quick ? 20000 : 100000;
  for (const std::uint64_t sp : {64ull, 256ull}) {
    std::vector<dmpc::mpc::Word> v(psum_n);
    for (auto& x : v) x = rng.next_below(1u << 30);
    PointScope scope;
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = sp;
    cc.num_machines = 1 << 16;
    dmpc::mpc::Cluster real(cc);
    dmpc::mpc::lowlevel::prefix_sum(real, v);
    dmpc::mpc::Cluster charged(cc);
    dmpc::mpc::prefix_sum_exclusive(charged, v);
    points.push(scope.finish(
        Json("prefix_sum/S=" + std::to_string(sp)),
        Json::object()
            .set("n", psum_n)
            .set("machine_space", sp)
            .set("real_rounds", real.metrics().rounds())
            .set("charged_rounds", charged.metrics().rounds())
            .set("peak_load", real.metrics().peak_machine_load())));
  }
  for (const auto& [n, sp] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{{3000, 256},
                                                            {12000, 512}}) {
    std::vector<dmpc::mpc::Word> v(n);
    for (auto& x : v) x = rng.next_below(1u << 30);
    PointScope scope;
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = sp;
    cc.num_machines = 1 << 16;
    dmpc::mpc::Cluster real(cc);
    auto a = v;
    dmpc::mpc::lowlevel::sort(real, a);
    dmpc::mpc::Cluster charged(cc);
    auto b = v;
    dmpc::mpc::dsort(charged, b, std::less<>{});
    points.push(scope.finish(
        Json("sample_sort/S=" + std::to_string(sp)),
        Json::object()
            .set("n", n)
            .set("machine_space", sp)
            .set("real_rounds", real.metrics().rounds())
            .set("charged_rounds", charged.metrics().rounds())
            .set("peak_load", real.metrics().peak_machine_load())));
  }
  return points;
}

// -------------------------------------------------------------------- E14

Json e14_points(const RunConfig& cfg) {
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{256, 512}
                : std::vector<std::uint64_t>{256, 512, 1024};
  Json points = Json::array();
  for (const std::uint64_t n : ns) {
    const auto g = dmpc::graph::random_bipartite(
        static_cast<NodeId>(n / 2), static_cast<NodeId>(n - n / 2),
        static_cast<EdgeId>(4 * n), 1600 + n);
    PointScope scope;
    const auto maximum = dmpc::graph::hopcroft_karp(g);
    const auto cover = dmpc::apps::vertex_cover_2approx(g);
    points.push(scope.finish(
        Json(n), Json::object()
                     .set("cover_size", cover.cover_size)
                     .set("matching_size", cover.matching_size)
                     .set("maximum_matching",
                          static_cast<std::uint64_t>(maximum.size))));
  }
  // Secondary series: (Delta+1)-coloring on random regular graphs.
  for (const std::uint32_t d : {3u, 5u, 8u}) {
    const auto g = dmpc::graph::random_regular(512, d, 1700 + d);
    PointScope scope;
    const auto coloring = dmpc::apps::delta_plus_one_coloring(g);
    points.push(scope.finish(
        Json("coloring/delta=" + std::to_string(d)),
        Json::object()
            .set("colors_used", coloring.colors_used)
            .set("palette", static_cast<std::uint64_t>(g.max_degree()) + 1)));
  }
  return points;
}

// -------------------------------------------------------------------- E15

Json e15_points(const RunConfig& cfg) {
  (void)cfg;
  struct Top {
    const char* name;
    Graph g;
  };
  std::vector<Top> tops;
  tops.push_back({"star_1023", dmpc::graph::star(1023)});
  tops.push_back({"grid_32x32", dmpc::graph::grid(32, 32)});
  tops.push_back({"path_1024", dmpc::graph::path(1024)});
  Json points = Json::array();
  for (const auto& top : tops) {
    PointScope scope;
    const auto det = dmpc::congest::congest_mis(top.g);
    const auto rand = dmpc::congest::luby_mis_congest(top.g, 1);
    points.push(scope.finish(
        Json(std::string(top.name)),
        Json::object()
            .set("bfs_depth", static_cast<std::uint64_t>(det.bfs_depth))
            .set("det_rounds", det.metrics.rounds())
            .set("randomized_rounds", rand.metrics.rounds())));
  }
  return points;
}

// -------------------------------------------------------------------- E16

Json e16_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 512 : 1024;
  const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                  static_cast<EdgeId>(8 * n), 1800 + n);
  PointScope scope;
  dmpc::obs::CollectorSink collector;
  dmpc::obs::TraceSession session(&collector);
  auto options = solver_options(cfg);
  options.trace = &session;
  const dmpc::Solver solver(options);
  const auto solution = solver.mis(g);
  session.finish();
  // The solve's registry is the aggregate the trace spans roll up to;
  // cross-check the headline counters against the typed report.
  const auto& snap = solver.metrics_snapshot();
  const auto* rounds = snap.find("mpc/rounds");
  const auto* comm = snap.find("mpc/communication");
  DMPC_CHECK(rounds != nullptr && comm != nullptr);
  DMPC_CHECK(static_cast<std::uint64_t>(rounds->value) ==
             solution.report.metrics.rounds());
  DMPC_CHECK(static_cast<std::uint64_t>(comm->value) ==
             solution.report.metrics.total_communication());
  Json points = Json::array();
  points.push(scope.finish(
      Json(n), Json::object()
                   .set("trace_events", session.events_emitted())
                   .set("mpc_rounds", solution.report.metrics.rounds())
                   .set("communication",
                        solution.report.metrics.total_communication())
                   .set("registry_matches_report", std::uint64_t{1})));
  return points;
}

// -------------------------------------------------------------------- E17

Json e17_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 256 : 512;
  const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                  static_cast<EdgeId>(16 * n), /*seed=*/23);
  auto run = [&](std::uint32_t threads) {
    dmpc::SolveOptions options;
    options.threads = threads;
    const dmpc::Solver solver(options);
    const auto solution = solver.mis(g);
    return std::make_pair(solution, to_json(solution.report).dump());
  };
  const auto reference = run(1);
  Json points = Json::array();
  for (const std::uint32_t threads : {1u, 2u, 0u}) {
    PointScope scope;
    const auto [solution, json] = run(threads);
    const bool identical =
        solution.in_set == reference.first.in_set && json == reference.second;
    DMPC_CHECK_MSG(identical, "threads=" << threads
                                         << " output differs from serial");
    points.push(scope.finish(
        Json(static_cast<std::uint64_t>(threads)),
        Json::object()
            .set("mpc_rounds", solution.report.metrics.rounds())
            .set("peak_load", solution.report.metrics.peak_machine_load())
            .set("communication",
                 solution.report.metrics.total_communication())
            .set("identical_to_serial", static_cast<std::uint64_t>(identical))));
  }
  return points;
}

// -------------------------------------------------------------------- E18

Json e18_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 256 : 512;
  const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                  static_cast<EdgeId>(16 * n), /*seed=*/23);
  auto run = [&](const dmpc::mpc::FaultPlan& faults) {
    dmpc::SolveOptions options;
    options.faults = faults;
    const auto solution = dmpc::Solver(options).mis(g);
    return std::make_pair(solution, comparable_report(solution));
  };
  const auto baseline = run(dmpc::mpc::FaultPlan{});
  const std::uint64_t total_rounds = baseline.first.report.metrics.rounds();
  auto spread = [&](dmpc::mpc::FaultKind kind, std::uint64_t count,
                    std::uint64_t machines) {
    dmpc::mpc::FaultPlan plan;
    for (std::uint64_t i = 0; i < count; ++i) {
      dmpc::mpc::FaultEvent event;
      event.kind = kind;
      event.round = 1 + (i * total_rounds) / (count + 1);
      event.machine = i % machines;
      event.message = 0;
      plan.add(event);
    }
    return plan;
  };
  const std::uint64_t light = cfg.quick ? 2 : 4;
  struct Scenario {
    const char* name;
    dmpc::mpc::FaultPlan faults;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"crash_light", spread(dmpc::mpc::FaultKind::kCrash, light, 1)});
  scenarios.push_back(
      {"drop_light", spread(dmpc::mpc::FaultKind::kDrop, light, 1)});
  {
    auto mixed = spread(dmpc::mpc::FaultKind::kCrash, light, 16);
    for (const auto kind :
         {dmpc::mpc::FaultKind::kDrop, dmpc::mpc::FaultKind::kStraggler,
          dmpc::mpc::FaultKind::kDuplicate}) {
      const auto part = spread(kind, light, 16);
      for (const auto& e : part.events()) mixed.add(e);
    }
    scenarios.push_back({"mixed", std::move(mixed)});
  }
  Json points = Json::array();
  for (const auto& scenario : scenarios) {
    PointScope scope;
    const auto [solution, json] = run(scenario.faults);
    const bool identical = solution.in_set == baseline.first.in_set &&
                           json == baseline.second;
    DMPC_CHECK_MSG(identical, "scenario '" << scenario.name
                                           << "' differs from fault-free run");
    const auto& rec = solution.report.recovery;
    points.push(scope.finish(
        Json(std::string(scenario.name)),
        Json::object()
            .set("planned_events",
                 static_cast<std::uint64_t>(scenario.faults.events().size()))
            .set("faults_injected", rec.faults_injected)
            .set("retries", rec.retries)
            .set("replayed_rounds", rec.replayed_rounds)
            .set("checkpoints", rec.checkpoints)
            .set("identical_to_fault_free",
                 static_cast<std::uint64_t>(identical))));
  }
  return points;
}

// ---------------------------------------------------------- E19 / E20 storage

/// A fresh directory under the system temp dir, removed on scope exit.
struct ScratchDir {
  explicit ScratchDir(const char* name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  fs::path path;
};

/// Stream-write the circulant graph C(n; 1..k): node v joined to v+d (mod n)
/// for d = 1..k. Exactly m = n*k distinct edges (for 2k < n), no self-loops,
/// uniform degree 2k — and O(1) writer memory, which is the point: the sweep
/// must never hold a graph-sized structure on the heap.
void write_circulant(const std::string& path, std::uint64_t n,
                     std::uint64_t k) {
  std::ofstream out(path);
  out << n << ' ' << n * k << '\n';
  for (std::uint64_t v = 0; v < n; ++v) {
    for (std::uint64_t d = 1; d <= k; ++d) {
      out << v << ' ' << (v + d) % n << '\n';
    }
  }
}

/// Exact heap bytes Graph::from_edges would pin for (n, m): offsets
/// (n+1)*u64, adjacency 2m*u32, incident 2m*u64, edges m*8B.
std::uint64_t csr_bytes(std::uint64_t n, std::uint64_t m) {
  return (n + 1) * 8 + 2 * m * (4 + 8) + m * 8;
}

Json shard_model(const dmpc::mpc::ShardBuildStats& stats) {
  return Json::object()
      .set("n", stats.n)
      .set("m", stats.m)
      .set("csr_bytes", csr_bytes(stats.n, stats.m))
      .set("shard_bytes", stats.total_bytes)
      .set("shards", stats.shards);
}

// E19: out-of-core shard storage — bounded build RSS + backend identity.
//
// The streaming shard builder (mpc/shard_format.hpp) promises peak host
// memory of O(n) words plus a fixed dirty-page budget, *never* O(m). The
// sweep grows m on circulant graphs whose edge lists are stream-written,
// records the process peak RSS after each build, and reports it next to the
// exact byte size the in-memory CSR would occupy. tools/scaling_check gates
// the ratio, so regressing to an in-memory build fails at the largest m.
// A small instance is then solved through both backends and must be
// byte-identical (solutions + report JSON).
//
// Precondition: the RSS samples are taken before any in-memory graph exists
// in the process (ru_maxrss is monotone, so an earlier heap CSR would mask
// the builder's footprint). Run e19 as its own bench_runner invocation when
// its artifact is gated; the identity check runs after the sweep for the
// same reason.
Json e19_points(const RunConfig& cfg) {
  constexpr std::uint64_t kDirtyPageBudget = 16ull << 20;
  const ScratchDir dir("dmpc_bench_e19");
  dmpc::mpc::ShardBuildOptions build;
  build.rss_budget_bytes = kDirtyPageBudget;

  // Degree 2k = 16 throughout, n doubling. The full sweep's largest point
  // has a ~211 MB in-memory CSR; the builder must stay flat.
  constexpr std::uint64_t k = 8;
  std::vector<std::uint64_t> ns = {100000, 200000, 400000};
  if (!cfg.quick) ns.push_back(800000);
  std::vector<Json> sweep;
  for (const std::uint64_t n : ns) {
    const std::string edges =
        (dir.path / ("sweep_" + std::to_string(n) + ".txt")).string();
    write_circulant(edges, n, k);
    const auto t0 = Clock::now();
    const auto stats = dmpc::mpc::shard_build(
        edges, (dir.path / ("shards_" + std::to_string(n))).string(), build);
    const double build_ms = ms_since(t0);
    const std::uint64_t peak_rss = dmpc::obs::peak_rss_bytes();
    fs::remove(edges);  // keep scratch-disk footprint to one point's input
    sweep.push_back(Json::object()
                        .set("axis_value", stats.m)
                        .set("model", shard_model(stats))
                        .set("rss", Json::object()
                                        .set("build_peak_rss_bytes", peak_rss)
                                        .set("rss_budget_bytes",
                                             build.rss_budget_bytes))
                        .set("wall", dmpc::bench::wall_stats(build_ms)));
  }

  const std::string id_edges = (dir.path / "identity.txt").string();
  const std::string id_shards = (dir.path / "identity_shards").string();
  write_circulant(id_edges, /*n=*/2000, k);
  const auto id_stats = dmpc::mpc::shard_build(id_edges, id_shards, build);
  const auto storage = dmpc::mpc::MmapShardStorage::open(id_shards);
  const auto memory_graph = dmpc::graph::read_edge_list_file(id_edges);
  const dmpc::Solver solver(solver_options(cfg));
  const auto t_solve = Clock::now();
  const auto from_mmap = solver.mis(*storage);
  const double solve_ms = ms_since(t_solve);
  const auto from_memory = solver.mis(memory_graph);
  const bool identical =
      from_mmap.in_set == from_memory.in_set &&
      to_json(from_mmap.report).dump() == to_json(from_memory.report).dump();
  DMPC_CHECK_MSG(identical, "mmap-backed solve differs from in-memory solve");

  Json points = Json::array();
  points.push(Json::object()
                  .set("axis_value", id_stats.m)
                  .set("model", shard_model(id_stats)
                                    .set("mis_size", set_size(from_mmap.in_set))
                                    .set("mpc_rounds",
                                         from_mmap.report.metrics.rounds())
                                    .set("identical",
                                         static_cast<std::uint64_t>(identical)))
                  .set("wall", dmpc::bench::wall_stats(solve_ms)));
  for (auto& point : sweep) points.push(std::move(point));
  return points;
}

// E20: storage-fault recovery — overhead and identity under injected I/O
// faults. The recovery ladder (docs/STORAGE.md, "Integrity & degraded mode")
// promises that any admissible IoFaultPlan resolving within the
// RecoveryOptions budget yields byte-identical solutions and reports (modulo
// the recovery ledger) to the fault-free open. This walks the ladder on one
// shard directory: a clean verified open, transient open-time failures
// absorbed by retries, a checksum flip that heals on retry, persistent
// verify-time corruption forcing a quarantine re-read, and an exhausted mmap
// budget degrading to the in-memory backend. The deterministic ledger
// counters are gated against the committed baseline; "identical" must be 1.
// The instance is the same in quick and full mode.
Json e20_points(const RunConfig& cfg) {
  using dmpc::mpc::IoFaultKind;
  using dmpc::mpc::IoFaultPlan;
  const ScratchDir dir("dmpc_bench_e20");
  const dmpc::graph::Graph g = dmpc::graph::gnm(4000, 32000, 20);
  const std::string edge_path = (dir.path / "g.txt").string();
  dmpc::graph::write_edge_list_file(g, edge_path);
  dmpc::mpc::ShardBuildOptions build;
  build.shard_words = 8192;  // small enough that every scenario spans shards
  const std::string shard_dir = (dir.path / "shards").string();
  const auto build_stats = dmpc::mpc::shard_build(edge_path, shard_dir, build);

  IoFaultPlan transient;
  transient.add({IoFaultKind::kEio, /*shard=*/0, dmpc::mpc::kAccessOpen,
                 /*delay=*/1, /*attempts=*/2});
  transient.add({IoFaultKind::kShortRead, /*shard=*/1, dmpc::mpc::kAccessOpen,
                 /*delay=*/1, /*attempts=*/1});
  transient.add({IoFaultKind::kSlow, /*shard=*/0, dmpc::mpc::kAccessVerify,
                 /*delay=*/3, /*attempts=*/1});
  IoFaultPlan heal;
  heal.add({IoFaultKind::kCorrupt, /*shard=*/0, dmpc::mpc::kAccessVerify,
            /*delay=*/1, /*attempts=*/1});
  IoFaultPlan quarantine;
  quarantine.add({IoFaultKind::kCorrupt, /*shard=*/1, dmpc::mpc::kAccessVerify,
                  /*delay=*/1, /*attempts=*/4});
  IoFaultPlan exhaust_mmap;
  exhaust_mmap.add({IoFaultKind::kMapFail, /*shard=*/0, dmpc::mpc::kAccessOpen,
                    /*delay=*/1,
                    /*attempts=*/dmpc::mpc::RecoveryOptions::kMaxRetries + 1});
  struct Scenario {
    const char* name;
    IoFaultPlan plan;
    bool degrade;  // open through the fallback path, not mmap
  };
  const std::vector<Scenario> scenarios = {
      {"clean", IoFaultPlan{}, false},     {"transient", transient, false},
      {"heal", heal, false},               {"quarantine", quarantine, false},
      {"degraded", exhaust_mmap, true}};

  const dmpc::Solver solver(solver_options(cfg));
  const auto reference = solver.mis(g);
  const std::string reference_report = comparable_report(reference);
  Json points = Json::array();
  for (const Scenario& scenario : scenarios) {
    const auto t0 = Clock::now();
    std::unique_ptr<dmpc::mpc::Storage> storage;
    if (scenario.degrade) {
      dmpc::mpc::StorageOptions options;
      options.backend = dmpc::mpc::StorageBackend::kMmap;
      options.shard_dir = shard_dir;
      options.verify = dmpc::mpc::VerifyMode::kOpen;
      options.fallback = dmpc::mpc::FallbackMode::kMemory;
      storage = dmpc::mpc::open_storage(options, edge_path, {}, scenario.plan);
    } else {
      storage = dmpc::mpc::MmapShardStorage::open(
          shard_dir, {}, dmpc::mpc::VerifyMode::kOpen, scenario.plan);
    }
    const auto solution = solver.mis(*storage);
    const double wall_ms = ms_since(t0);
    const bool identical = solution.in_set == reference.in_set &&
                           comparable_report(solution) == reference_report;
    DMPC_CHECK_MSG(identical, "scenario '" << scenario.name
                                           << "' differs from fault-free run");
    const auto& ledger = storage->io_recovery();
    points.push(
        Json::object()
            .set("axis_value", std::string(scenario.name))
            .set("model",
                 Json::object()
                     .set("n", build_stats.n)
                     .set("m", build_stats.m)
                     .set("shards", build_stats.shards)
                     .set("io_faults_injected", ledger.io_faults_injected)
                     .set("retries", ledger.retries)
                     .set("backoff_units", ledger.backoff_units)
                     .set("checksum_failures", ledger.checksum_failures)
                     .set("quarantined_shards", ledger.quarantined_shards)
                     .set("degraded", ledger.degraded)
                     .set("shards_verified", ledger.shards_verified)
                     .set("mis_size", set_size(solution.in_set))
                     .set("mpc_rounds", solution.report.metrics.rounds())
                     .set("identical", static_cast<std::uint64_t>(identical)))
            .set("wall", dmpc::bench::wall_stats(wall_ms)));
  }
  return points;
}

// ------------------------------------------------------------- experiment table

struct Experiment {
  const char* id;     // "e1"
  const char* axis;   // sweep variable name
  const char* title;  // one line: the claim the experiment reproduces
  std::function<Json(const RunConfig&)> points;
};

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> table = {
      {"e1", "n", "Theorem 7: deterministic maximal matching rounds vs n",
       e1_points},
      {"e2", "n", "Theorem 14: deterministic MIS rounds vs n", e2_points},
      {"e3", "family", "Lemma 3 / Cor. 8 & 16: good-class degree mass",
       e3_points},
      {"e4", "n", "Sparsification invariants (Lemmas 10/11 & 17/18)",
       e4_points},
      {"e5", "family", "Lemmas 13 & 21: per-iteration edge removal fraction",
       e5_points},
      {"e6", "delta", "Theorem 1 (s5): rounds = O(log Delta + log log n)",
       e6_points},
      {"e7", "delta", "Corollary 2: CONGESTED CLIQUE MIS vs baseline",
       e7_points},
      {"e8", "n", "Space: peak machine load vs S = O(n^eps)", e8_points},
      {"e9", "n", "Derandomization cost: seed trials per step", e9_points},
      {"e10", "n", "Deterministic vs randomized baselines (iterations)",
       e10_points},
      {"e11", "n", "Ablation: 2-hop footprint with vs without sparsification",
       e11_points},
      {"e12", "selection_batch", "Ablation: selection batch size", e12_points},
      {"e13", "case", "Lemma-4 realizability: real vs charged primitives",
       e13_points},
      {"e14", "n", "Applications: Koenig-exact vertex cover on bipartite",
       e14_points},
      {"e15", "topology", "s6 extension: derandomized Luby in CONGEST",
       e15_points},
      {"e16", "n", "Observability: traced MIS run vs registry snapshot",
       e16_points},
      {"e17", "threads", "Host-parallel engine: identity across threads",
       e17_points},
      {"e18", "scenario", "Fault injection: recovery cost, identical output",
       e18_points},
      {"e19", "m", "Out-of-core shard storage: build RSS bound + identity",
       e19_points},
      {"e20", "scenario", "Storage-fault recovery: ladder overhead + identity",
       e20_points},
  };
  return table;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const dmpc::ArgParser args(argc, argv);
  RunConfig cfg;
  cfg.quick = args.has("quick");
  cfg.progress = args.has("progress");
  cfg.threads = static_cast<std::uint32_t>(args.get_int("threads", 1));
  const std::string out_dir = args.get("out", ".");
  const std::string commit = args.get("commit", "");
  const std::string experiments_csv = args.get("experiments", "");
  if (experiments_csv.empty()) {
    std::fprintf(stderr,
                 "usage: bench_runner --experiments=e1,e2,...|all --out=<dir> "
                 "[--quick] [--threads=N] [--commit=<sha>] [--progress]\n");
    return 2;
  }

  std::vector<const Experiment*> selected;
  if (experiments_csv == "all") {
    for (const auto& e : experiments()) selected.push_back(&e);
  } else {
    for (const auto& id : split_csv(experiments_csv)) {
      const Experiment* found = nullptr;
      std::string known;
      for (const auto& e : experiments()) {
        if (id == e.id) found = &e;
        known += known.empty() ? e.id : std::string(",") + e.id;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "unknown experiment '%s' (known: %s)\n",
                     id.c_str(), known.c_str());
        return 2;
      }
      selected.push_back(found);
    }
  }

  fs::create_directories(out_dir);
  for (const Experiment* exp : selected) {
    std::fprintf(stderr, "running %s: %s\n", exp->id, exp->title);
    auto doc = dmpc::bench::bench_envelope(exp->id, exp->title, cfg.quick,
                                           commit)
                   .set("axis", std::string(exp->axis))
                   .set("threads", static_cast<std::uint64_t>(cfg.threads))
                   .set("points", exp->points(cfg));
    const std::string path =
        out_dir + "/BENCH_" + upper(exp->id) + ".json";
    dmpc::bench::write_json_file(doc, path);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  return 0;
}
