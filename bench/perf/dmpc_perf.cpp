// dmpc_perf — host-performance benchmark: input bytes -> certified answer ->
// serialized report, end to end and layer by layer.
//
//   dmpc_perf --spec=BENCHMARK.json --out=perf-out [--seed=1] [--repeats=5]
//             [--workloads=bench/perf/workloads.json] [--commit=<sha>]
//     Every workload: 1 traced + `repeats` timed + 1 serial child. Prints
//     every metric with its unit and writes <out>/BENCH_PERF.json.
//
//   dmpc_perf --spec=BENCHMARK.json --workload=W --seed=N --seconds=S
//             --trace=0|1 [--work=<dir>] [--workloads=...]
//     One workload: timed children until S seconds have passed (at least
//     kMinTimedRuns), plus a traced and a serial child with --trace=1. The
//     last stdout line is {"correct","attempted","failed","metrics"} with the
//     end-to-end metrics (--trace=0) or the per-layer metrics (--trace=1).
//
// Workload names and metric names come from the spec (BENCHMARK.json);
// workload parameters and pinned seed-1 answers from the workloads file.
// The parent process never builds a graph: input generation and every
// repeat run in fork()ed children (child.hpp), so each child's peak RSS and
// CPU time are its own. The harness times each call into a layer's public
// function from outside and reads the per-solve registry delta; it adds no
// instrumentation to the library. Exit status is non-zero when any run
// failed: a crash, a timeout, a failed certificate claim, an answer that
// differs between repeats, or a value that differs from its pin.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "bench_json.hpp"
#include "child.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mpc/shard_format.hpp"
#include "mpc/storage.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"
#include "verify/certifier.hpp"

namespace {

namespace fs = std::filesystem;
using dmpc::Json;
using Clock = std::chrono::steady_clock;

/// Host threads of a timed or traced repeat (capped at the core count, so
/// load never exceeds one process with nproc threads).
constexpr std::uint32_t kThreads = 4;
/// A child still running after this long is killed and counted as failed.
constexpr double kChildTimeoutS = 120.0;
/// Fewest timed repeats a --seconds run reports a median over.
constexpr int kMinTimedRuns = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  bool matching = false;  ///< Maximal matching; else MIS.
  std::string family;     ///< "gnm" or "regular".
  std::uint64_t n = 0;
  std::uint64_t m = 0;    ///< gnm edge count.
  std::uint32_t d = 0;    ///< random_regular degree.
  bool mmap = false;      ///< Serve from a dshard directory.
  Json pins;              ///< Pinned values for pins.seed, or null.
};

struct Spec {
  std::vector<WorkloadSpec> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

std::vector<MetricSpec> metric_list(const Json& spec, const char* key) {
  std::vector<MetricSpec> metrics;
  for (const Json& m : spec.at(key).items()) {
    metrics.push_back({m.at("name").as_string(), m.at("unit").as_string()});
  }
  return metrics;
}

Spec load_spec(const std::string& spec_path,
               const std::string& workloads_path) {
  const Json spec = Json::parse_file(spec_path);
  const Json defs = Json::parse_file(workloads_path);
  Spec out;
  out.end_to_end = metric_list(spec, "end_to_end");
  out.per_layer = metric_list(spec, "per_layer");
  for (const Json& w : spec.at("workloads").items()) {
    WorkloadSpec ws;
    ws.name = w.at("name").as_string();
    ws.why = w.at("why").as_string();
    const Json* def = defs.at("workloads").find(ws.name);
    if (def == nullptr) {
      throw std::runtime_error("workload '" + ws.name + "' is not defined in " +
                               workloads_path);
    }
    const std::string& problem = def->at("problem").as_string();
    if (problem != "mis" && problem != "matching") {
      throw std::runtime_error(ws.name + ": problem must be mis or matching");
    }
    ws.matching = problem == "matching";
    const Json& graph = def->at("graph");
    ws.family = graph.at("family").as_string();
    ws.n = static_cast<std::uint64_t>(graph.at("n").as_int64());
    if (ws.family == "gnm") {
      ws.m = static_cast<std::uint64_t>(graph.at("m").as_int64());
    } else if (ws.family == "regular") {
      ws.d = static_cast<std::uint32_t>(graph.at("d").as_int64());
    } else {
      throw std::runtime_error(ws.name + ": family must be gnm or regular");
    }
    const std::string& storage = def->at("storage").as_string();
    if (storage != "memory" && storage != "mmap") {
      throw std::runtime_error(ws.name + ": storage must be memory or mmap");
    }
    ws.mmap = storage == "mmap";
    if (const Json* pins = def->find("pins")) ws.pins = *pins;
    out.workloads.push_back(std::move(ws));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, const unsigned char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_file(std::uint64_t h, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<char> buffer(1 << 20);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    h = fnv1a(h, reinterpret_cast<const unsigned char*>(buffer.data()),
              static_cast<std::size_t>(in.gcount()));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over the in_set bits, packed LSB-first into bytes.
std::string mis_digest(const std::vector<bool>& in_set) {
  std::vector<unsigned char> bytes((in_set.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < in_set.size(); ++i) {
    if (in_set[i]) bytes[i / 8] |= static_cast<unsigned char>(1u << (i % 8));
  }
  return hex(fnv1a(kFnvOffset, bytes.data(), bytes.size()));
}

/// FNV-1a over the sorted matching edge ids, 8 little-endian bytes each.
std::string matching_digest(std::vector<dmpc::graph::EdgeId> ids) {
  std::sort(ids.begin(), ids.end());
  std::uint64_t h = kFnvOffset;
  for (const auto id : ids) {
    unsigned char le[8];
    for (int b = 0; b < 8; ++b) le[b] = static_cast<unsigned char>(id >> (8 * b));
    h = fnv1a(h, le, 8);
  }
  return hex(h);
}

// ---------------------------------------------------------------------------
// Inputs (generated in a child)
// ---------------------------------------------------------------------------

struct Inputs {
  std::string path;  ///< Text edge list, or the dshard directory.
  std::string fnv;   ///< FNV-1a of the input bytes.
  double mb = 0.0;   ///< Input size in 10^6 bytes.
  std::uint64_t n = 0;
  std::uint64_t m = 0;
};

std::string input_key(const WorkloadSpec& w, std::uint64_t seed) {
  std::string key = w.family + "-n" + std::to_string(w.n);
  key += w.family == "gnm" ? "-m" + std::to_string(w.m)
                           : "-d" + std::to_string(w.d);
  return key + "-s" + std::to_string(seed) + (w.mmap ? ".dshard" : ".txt");
}

/// Create `dir` and delete inputs an interrupted run left in it (only names
/// input_key() produces, so a shared directory loses nothing else).
void remove_stale_inputs(const std::string& dir) {
  fs::create_directories(dir);
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("gnm-", 0) == 0 || name.rfind("regular-", 0) == 0) {
      fs::remove_all(entry.path());
    }
  }
}

/// Child body: generate the graph, write the text edge list (and, for mmap
/// workloads, the shard directory built from it), and digest the bytes.
std::string generate_inputs(const WorkloadSpec& w, std::uint64_t seed,
                            const std::string& path) {
  namespace graph = dmpc::graph;
  const graph::Graph g =
      w.family == "gnm"
          ? graph::gnm(static_cast<graph::NodeId>(w.n), w.m, seed)
          : graph::random_regular(static_cast<graph::NodeId>(w.n), w.d, seed);
  Json out = Json::object()
                 .set("n", static_cast<std::uint64_t>(g.num_nodes()))
                 .set("m", g.num_edges());
  fs::remove_all(path);
  if (!w.mmap) {
    graph::write_edge_list_file(g, path);
    out.set("fnv", hex(fnv1a_file(kFnvOffset, path)))
        .set("bytes", static_cast<std::uint64_t>(fs::file_size(path)));
    return out.dump();
  }
  const std::string text = path + ".txt";
  graph::write_edge_list_file(g, text);
  const auto stats = dmpc::mpc::shard_build(text, path);
  fs::remove(text);
  std::uint64_t h = fnv1a_file(kFnvOffset,
                               (fs::path(path) / dmpc::mpc::kManifestFileName)
                                   .string());
  for (std::uint64_t i = 0; i < stats.shards; ++i) {
    h = fnv1a_file(h, (fs::path(path) / dmpc::mpc::shard_file_name(i)).string());
  }
  out.set("fnv", hex(h)).set("bytes", stats.total_bytes);
  return out.dump();
}

// ---------------------------------------------------------------------------
// One repeat (runs in a child)
// ---------------------------------------------------------------------------

/// Registry value by name (0 when the solve never registered it).
double reg(const dmpc::obs::MetricsSnapshot& s, const std::string& name) {
  const dmpc::obs::MetricValue* v = s.find(name);
  return v == nullptr ? 0.0 : static_cast<double>(v->value);
}

void require_claim(const dmpc::verify::ClaimResult& claim) {
  if (claim.verdict == dmpc::verify::Verdict::kFail) {
    throw std::runtime_error(std::string("certificate claim failed: ") +
                             dmpc::verify::claim_name(claim.claim));
  }
}

/// Span-derived per-layer metrics of the traced repeat: inclusive wall time
/// summed over every instance of the named spans, and instance counts.
void add_span_metrics(const std::vector<dmpc::obs::TraceEvent>& events,
                      Json* out) {
  std::map<std::string, dmpc::obs::SpanStats> by_name;
  for (const auto& s : dmpc::obs::summarize_spans(events)) by_name[s.name] = s;
  auto wall = [&](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) {
      if (auto it = by_name.find(name); it != by_name.end()) {
        total += 1e-9 * static_cast<double>(it->second.wall_ns);
      }
    }
    return total;
  };
  auto count = [&](std::initializer_list<const char*> names) {
    std::uint64_t total = 0;
    for (const char* name : names) {
      if (auto it = by_name.find(name); it != by_name.end()) {
        total += it->second.count;
      }
    }
    return total;
  };
  const double stage = wall({"mis_sparsify/stage", "sparsify/stage"});
  const double seed = wall({"mis_sparsify/seed", "sparsify/seed"});
  out->set("sparsify.good_nodes_s",
           wall({"mis/phase/good_nodes", "matching/phase/good_nodes"}))
      .set("sparsify.phase_s",
           wall({"mis/phase/sparsify", "matching/phase/sparsify"}))
      .set("sparsify.stage_s", stage)
      .set("sparsify.seed_s", seed)
      .set("sparsify.stage_setup_s", stage - seed)
      .set("sparsify.stages", count({"mis_sparsify/stage", "sparsify/stage"}))
      .set("mis.gather_s", wall({"mis/phase/gather"}))
      .set("mis.derand_s", wall({"mis/phase/derand"}))
      .set("mis.commit_s", wall({"mis/phase/commit"}))
      .set("mis.iterations", count({"mis/iteration"}))
      .set("matching.gather_s", wall({"matching/phase/gather"}))
      .set("matching.derand_s", wall({"matching/phase/derand"}))
      .set("matching.commit_s", wall({"matching/phase/commit"}))
      .set("matching.iterations", count({"matching/iteration"}))
      .set("lowdeg.coloring_s", wall({"lowdeg/phase/coloring"}))
      .set("lowdeg.gather_s", wall({"lowdeg/phase/gather"}))
      .set("lowdeg.stage_s", wall({"lowdeg/stage"}))
      .set("lowdeg.stages", count({"lowdeg/stage"}));
}

/// Child body: Solver construction + open_storage (setup), solve, answer
/// claims + space accounting (certify), report_json (report). Returns the
/// sample as a flat JSON object keyed by metric name.
std::string run_repeat(const WorkloadSpec& w, const Inputs& in,
                       std::uint32_t threads, bool traced) {
  dmpc::obs::CollectorSink collector;
  dmpc::obs::TraceSession session(&collector);
  dmpc::SolveOptions options;
  options.threads = threads;
  if (traced) options.trace = &session;
  if (w.mmap) {
    options.storage.backend = dmpc::mpc::StorageBackend::kMmap;
    options.storage.shard_dir = in.path;
    options.storage.verify = dmpc::mpc::VerifyMode::kOpen;
  }

  const auto t0 = Clock::now();
  const dmpc::Solver solver(options);
  const auto storage = solver.open_storage(w.mmap ? std::string() : in.path);
  const double setup_s = since(t0);
  const dmpc::graph::Graph& g = storage->graph();

  const auto t_solve = Clock::now();
  dmpc::MisSolution mis;
  dmpc::MatchingSolution matching;
  if (w.matching) {
    matching = solver.maximal_matching(*storage);
  } else {
    mis = solver.mis(*storage);
  }
  const double solve_s = since(t_solve);
  const dmpc::SolveReport& report = w.matching ? matching.report : mis.report;
  if (traced) session.finish();

  const auto t_certify = Clock::now();
  const dmpc::verify::Certifier certifier(solver.make_executor());
  if (w.matching) {
    require_claim(certifier.check_matching_validity(g, matching.matching));
    require_claim(certifier.check_matching_maximality(g, matching.matching));
  } else {
    require_claim(certifier.check_mis_independence(g, mis.in_set));
    require_claim(certifier.check_mis_maximality(g, mis.in_set));
  }
  require_claim(certifier.check_space_accounting(
      report.metrics,
      solver.cluster_config(g.num_nodes(), g.num_edges()).machine_space));
  const double certify_s = since(t_certify);

  const auto t_report = Clock::now();
  const std::string report_json = solver.report_json(report);
  const double report_s = since(t_report);
  const double wall_s = since(t0);
  if (report_json.empty()) throw std::runtime_error("empty report");

  const dmpc::obs::MetricsSnapshot& s = solver.metrics_snapshot();
  const double searches = reg(s, "derand/searches");
  const double candidates = reg(s, "derand/candidate_seeds");
  Json out = Json::object();
  out.set("answer_fnv", w.matching ? matching_digest(matching.matching)
                                   : mis_digest(mis.in_set))
      .set("mpc_rounds", report.metrics.rounds())
      .set("communication_words", report.metrics.total_communication())
      .set("peak_machine_load", report.metrics.peak_machine_load())
      .set("wall_s", wall_s)
      .set("setup_s", setup_s)
      .set("graph.parse_s", w.mmap ? 0.0 : setup_s)
      .set("graph.parse_mb_per_s", w.mmap ? 0.0 : in.mb / setup_s)
      .set("mpc.storage_open_s", w.mmap ? setup_s : 0.0)
      .set("api.solve_s", solve_s)
      .set("verify.certify_s", certify_s)
      .set("api.report_s", report_s)
      .set("derand.seed_search_s",
           1e-9 * reg(s, "host/derand/seed_search/wall_ns"))
      .set("derand.seed_search_cpu_s",
           1e-9 * reg(s, "host/derand/seed_search/cpu_ns"))
      .set("derand.selection_s", 1e-9 * reg(s, "host/derand/selection/wall_ns"))
      .set("derand.selection_cpu_s",
           1e-9 * reg(s, "host/derand/selection/cpu_ns"))
      .set("derand.searches", searches)
      .set("derand.candidate_seeds", candidates)
      .set("derand.seeds_per_search", searches > 0 ? candidates / searches : 0.0)
      .set("derand.alloc_bytes",
           reg(s, "host/derand/seed_search/alloc_bytes") +
               reg(s, "host/derand/selection/alloc_bytes"))
      .set("field.batch_calls", reg(s, "derand/batch_calls"))
      .set("field.lanes_used", reg(s, "derand/lanes_used"))
      .set("field.batch_eval_s", 1e-9 * reg(s, "host/derand/batch_eval/wall_ns"))
      .set("field.batch_eval_cpu_s",
           1e-9 * reg(s, "host/derand/batch_eval/cpu_ns"))
      .set("exec.pool_dispatches", reg(s, "exec/pool_dispatches"))
      .set("exec.pool_tasks", reg(s, "exec/pool_tasks"))
      .set("exec.steals", reg(s, "exec/steals"))
      .set("exec.imbalance_max_tasks", reg(s, "exec/imbalance_max_tasks"))
      .set("exec.task_cpu_s", 1e-9 * reg(s, "exec/task_cpu_ns"))
      .set("mpc.bytes_mapped", reg(s, "storage/bytes_mapped"))
      .set("mpc.resident_bytes", reg(s, "storage/resident_bytes"))
      .set("mpc.shards_verified", reg(s, "storage/shards_verified"));
  if (traced) add_span_metrics(collector.events(), &out);
  return out.dump();
}

// ---------------------------------------------------------------------------
// Parent: run the children of one workload and aggregate
// ---------------------------------------------------------------------------

using Sample = std::map<std::string, double>;

struct Quartiles {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
};

/// Linear-interpolation quartiles (as Python's statistics.quantiles(...,
/// method="inclusive") in compare.py); all zero for an empty set.
Quartiles quartiles(const std::vector<double>& v) {
  if (v.empty()) return {};
  return {dmpc::percentile(v, 0), dmpc::percentile(v, 25),
          dmpc::percentile(v, 50), dmpc::percentile(v, 75),
          dmpc::percentile(v, 100)};
}

enum class RunKind { kTraced, kTimed, kSerial };

const char* run_kind_name(RunKind kind) {
  switch (kind) {
    case RunKind::kTraced: return "traced";
    case RunKind::kTimed: return "timed";
    case RunKind::kSerial: return "serial";
  }
  return "?";
}

struct WorkloadResult {
  const WorkloadSpec* spec = nullptr;
  Inputs inputs;
  std::uint32_t threads = 1;
  int runs = 0;  ///< Children attempted (input generation excluded).
  std::vector<std::string> failures;
  std::vector<Sample> timed;
  Sample traced;
  Sample serial;
  Json model;  ///< Answer digest + model totals every run agreed on.
};

class WorkloadRunner {
 public:
  WorkloadRunner(const WorkloadSpec& spec, std::uint64_t seed,
                 std::uint32_t threads)
      : seed_(seed) {
    result_.spec = &spec;
    result_.threads = threads;
  }

  /// Generate (or reuse) the inputs; false when generation failed.
  bool prepare(const std::string& work_dir,
               std::map<std::string, Inputs>* cache) {
    const WorkloadSpec& w = *result_.spec;
    const std::string key = input_key(w, seed_);
    if (auto it = cache->find(key); it != cache->end()) {
      result_.inputs = it->second;
    } else {
      const std::string path = (fs::path(work_dir) / key).string();
      const auto t0 = Clock::now();
      const auto child = dmpc::perf::run_child(
          [&] { return generate_inputs(w, seed_, path); }, kChildTimeoutS);
      std::fprintf(stderr, "dmpc_perf: %s: generated %s in %.2f s\n",
                   w.name.c_str(), key.c_str(), since(t0));
      if (!child.ok) {
        result_.failures.push_back("input generation: " + child.error);
        return false;
      }
      const Json out = Json::parse(child.payload);
      Inputs in;
      in.path = path;
      in.fnv = out.at("fnv").as_string();
      in.mb = 1e-6 * out.at("bytes").as_double();
      in.n = static_cast<std::uint64_t>(out.at("n").as_int64());
      in.m = static_cast<std::uint64_t>(out.at("m").as_int64());
      (*cache)[key] = in;
      result_.inputs = in;
    }
    if (const Json* pin = pinned("input_fnv");
        pin != nullptr && pin->as_string() != result_.inputs.fnv) {
      result_.failures.push_back("input_fnv " + result_.inputs.fnv +
                                 " differs from pinned " + pin->as_string());
    }
    return true;
  }

  void run(RunKind kind) {
    const WorkloadSpec& w = *result_.spec;
    const std::uint32_t threads =
        kind == RunKind::kSerial ? 1 : result_.threads;
    const bool traced = kind == RunKind::kTraced;
    ++result_.runs;
    const std::string label =
        std::string(run_kind_name(kind)) + " run " + std::to_string(result_.runs);
    const auto t0 = Clock::now();
    const auto child = dmpc::perf::run_child(
        [&] { return run_repeat(w, result_.inputs, threads, traced); },
        kChildTimeoutS);
    std::fprintf(stderr, "dmpc_perf: %s: %s: %.2f s\n", w.name.c_str(),
                 label.c_str(), since(t0));
    if (!child.ok) {
      result_.failures.push_back(label + ": " + child.error);
      return;
    }
    const Json out = Json::parse(child.payload);
    if (const std::string why = check_answer(out); !why.empty()) {
      result_.failures.push_back(label + ": " + why);
      return;
    }
    Sample sample;
    for (const auto& [key, value] : out.fields()) {
      if (value.is_number()) sample[key] = value.as_double();
    }
    sample["cpu_s"] = child.cpu_s;
    sample["peak_rss_mb"] = child.peak_rss_mb;
    sample["edges_per_s"] =
        static_cast<double>(result_.inputs.m) / sample["wall_s"];
    sample["exec.utilization"] =
        child.cpu_s / (sample["wall_s"] * static_cast<double>(threads));
    switch (kind) {
      case RunKind::kTraced: result_.traced = sample; break;
      case RunKind::kTimed: result_.timed.push_back(sample); break;
      case RunKind::kSerial: result_.serial = sample; break;
    }
  }

  WorkloadResult finish() { return std::move(result_); }

 private:
  /// The pinned value of `key`, when the workload pins one for this seed.
  const Json* pinned(const std::string& key) const {
    const Json& pins = result_.spec->pins;
    if (!pins.is_object() ||
        static_cast<std::uint64_t>(pins.at("seed").as_int64()) != seed_) {
      return nullptr;
    }
    return pins.find(key);
  }

  /// Empty when the run's answer digest and model totals agree with every
  /// earlier run of this workload and with the pins; else the difference.
  std::string check_answer(const Json& out) {
    Json model = Json::object();
    for (const char* key : {"answer_fnv", "mpc_rounds", "communication_words",
                            "peak_machine_load"}) {
      model.set(key, out.at(key));
    }
    for (const auto& [key, value] : model.fields()) {
      if (const Json* pin = pinned(key);
          pin != nullptr && pin->dump() != value.dump()) {
        return key + " " + value.dump() + " differs from pinned " + pin->dump();
      }
    }
    if (result_.model.is_null()) {
      result_.model = model;
    } else if (result_.model.dump() != model.dump()) {
      return "answer " + model.dump() + " differs from an earlier run's " +
             result_.model.dump();
    }
    return {};
  }

  std::uint64_t seed_;
  WorkloadResult result_;
};

/// Every value the spec can name for one workload: end-to-end metrics as
/// quartiles over the timed runs, per-layer metrics as one number each.
struct Aggregate {
  std::map<std::string, Quartiles> end_to_end;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> per_layer;
};

Aggregate aggregate(const WorkloadResult& r) {
  Aggregate a;
  std::map<std::string, std::vector<double>> columns;
  for (const Sample& s : r.timed) {
    for (const auto& [key, value] : s) columns[key].push_back(value);
  }
  // Traced-run values first; timed medians override the keys both have.
  for (const auto& [key, value] : r.traced) a.per_layer[key] = value;
  for (const auto& [key, values] : columns) {
    a.end_to_end[key] = quartiles(values);
    a.samples[key] = values;
    a.per_layer[key] = a.end_to_end[key].median;
  }
  auto median = [&](const char* key) {
    auto it = a.end_to_end.find(key);
    return it == a.end_to_end.end() ? 0.0 : it->second.median;
  };
  auto get = [](const Sample& s, const char* key) {
    auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
  };
  const double solve = median("api.solve_s");
  const double serial = get(r.serial, "api.solve_s");
  a.per_layer["exec.serial_solve_s"] = serial;
  a.per_layer["exec.speedup"] = solve > 0 ? serial / solve : 0.0;
  a.per_layer["verify.serial_certify_s"] = get(r.serial, "verify.certify_s");
  a.per_layer["obs.trace_overhead_s"] =
      r.traced.empty() ? 0.0 : get(r.traced, "api.solve_s") - solve;
  return a;
}

/// A metric the spec names but the harness does not produce is a harness
/// bug; refuse to report rather than print a silent zero.
void require_known(const Spec& spec, const Aggregate& a, bool with_layers) {
  for (const MetricSpec& m : spec.end_to_end) {
    if (!a.end_to_end.count(m.name)) {
      throw std::runtime_error("end-to-end metric '" + m.name +
                               "' is not produced by dmpc_perf");
    }
  }
  if (!with_layers) return;
  for (const MetricSpec& m : spec.per_layer) {
    if (!a.per_layer.count(m.name)) {
      throw std::runtime_error("per-layer metric '" + m.name +
                               "' is not produced by dmpc_perf");
    }
  }
}

std::uint32_t host_threads() {
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  return std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(kThreads, cores > 0 ? cores : 1));
}

// ---------------------------------------------------------------------------
// --seconds mode: one workload, one result line
// ---------------------------------------------------------------------------

int run_windowed(const Spec& spec, const dmpc::ArgParser& args) {
  const std::string name = args.get("workload", "");
  const auto it = std::find_if(
      spec.workloads.begin(), spec.workloads.end(),
      [&](const WorkloadSpec& w) { return w.name == name; });
  if (it == spec.workloads.end()) {
    std::fprintf(stderr, "dmpc_perf: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.require_int("seed", 1));
  const double seconds = args.require_double("seconds", 10.0);
  const bool trace = args.require_int("trace", 0) != 0;
  const std::string work = args.get("work", "perf-work");
  remove_stale_inputs(work);

  WorkloadRunner runner(*it, seed, host_threads());
  std::map<std::string, Inputs> cache;
  const bool prepared = runner.prepare(work, &cache);
  if (prepared) {
    const auto window = Clock::now();
    if (trace) runner.run(RunKind::kTraced);
    for (int timed = 0; timed < kMinTimedRuns || since(window) < seconds;
         ++timed) {
      runner.run(RunKind::kTimed);
    }
    if (trace) runner.run(RunKind::kSerial);
  }
  for (const auto& [key, in] : cache) fs::remove_all(in.path);
  const WorkloadResult r = runner.finish();
  const Aggregate a = aggregate(r);
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "dmpc_perf: %s: %s\n", name.c_str(), f.c_str());
  }
  const bool ok = r.failures.empty() && !r.timed.empty();
  if (ok) require_known(spec, a, trace);

  Json metrics = Json::object();
  for (const MetricSpec& m : trace ? spec.per_layer : spec.end_to_end) {
    double value = 0.0;
    if (trace) {
      if (auto v = a.per_layer.find(m.name); v != a.per_layer.end()) {
        value = v->second;
      }
    } else if (auto v = a.end_to_end.find(m.name); v != a.end_to_end.end()) {
      value = v->second.median;
    }
    metrics.set(m.name, Json::object().set("value", value).set("unit", m.unit));
  }
  // A failed input generation counts as one attempted, failed run; an input
  // digest that differs from its pin fails the run without failing a child.
  const int attempted = std::max(1, r.runs);
  const Json line =
      Json::object()
          .set("correct", ok)
          .set("attempted", attempted)
          .set("failed", std::min(attempted, static_cast<int>(r.failures.size())))
          .set("metrics", metrics);
  std::printf("%s\n", line.dump().c_str());
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Full mode: every workload, printed table + BENCH_PERF.json
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

Json quartiles_json(const Quartiles& q, const std::vector<double>& samples,
                    const std::string& unit) {
  Json arr = Json::array();
  for (double v : samples) arr.push(v);
  return Json::object()
      .set("unit", unit)
      .set("median", q.median)
      .set("q1", q.q1)
      .set("q3", q.q3)
      .set("min", q.min)
      .set("max", q.max)
      .set("samples", arr);
}

int run_full(const Spec& spec, const dmpc::ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.require_int("seed", 1));
  const int repeats = static_cast<int>(args.require_int("repeats", 5));
  if (repeats < 1) throw std::runtime_error("--repeats must be >= 1");
  const std::string out_dir = args.get("out", "perf-out");
  const std::string work = (fs::path(out_dir) / "inputs").string();
  remove_stale_inputs(work);
  const std::uint32_t threads = host_threads();

  std::map<std::string, Inputs> cache;
  Json workloads = Json::array();
  int failed_total = 0;
  for (const WorkloadSpec& w : spec.workloads) {
    const auto t0 = Clock::now();
    WorkloadRunner runner(w, seed, threads);
    if (runner.prepare(work, &cache)) {
      runner.run(RunKind::kTraced);
      for (int i = 0; i < repeats; ++i) runner.run(RunKind::kTimed);
      runner.run(RunKind::kSerial);
    }
    const WorkloadResult r = runner.finish();
    const Aggregate a = aggregate(r);
    const bool ok = r.failures.empty() && !r.timed.empty();
    if (ok) require_known(spec, a, true);
    failed_total += static_cast<int>(r.failures.size());

    std::printf("== %s (%s; n=%llu m=%llu; %d runs, %zu failed, %.1f s)\n",
                w.name.c_str(), w.matching ? "matching" : "mis",
                static_cast<unsigned long long>(r.inputs.n),
                static_cast<unsigned long long>(r.inputs.m), r.runs,
                r.failures.size(), since(t0));
    for (const std::string& f : r.failures) std::printf("   FAILED %s\n", f.c_str());
    Json e2e = Json::object();
    for (const MetricSpec& m : spec.end_to_end) {
      const auto q = a.end_to_end.count(m.name) ? a.end_to_end.at(m.name)
                                                : Quartiles{};
      std::printf("   %-28s %14.9g %-6s (median of %zu; q1 %.6g, q3 %.6g)\n",
                  m.name.c_str(), q.median, m.unit.c_str(), r.timed.size(),
                  q.q1, q.q3);
      e2e.set(m.name, quartiles_json(q,
                                     a.samples.count(m.name)
                                         ? a.samples.at(m.name)
                                         : std::vector<double>{},
                                     m.unit));
    }
    Json layers = Json::object();
    for (const MetricSpec& m : spec.per_layer) {
      const double v = a.per_layer.count(m.name) ? a.per_layer.at(m.name) : 0.0;
      std::printf("   %-28s %14.9g %s\n", m.name.c_str(), v, m.unit.c_str());
      layers.set(m.name, Json::object().set("value", v).set("unit", m.unit));
    }
    Json failures = Json::array();
    for (const std::string& f : r.failures) failures.push(f);
    workloads.push(Json::object()
                       .set("name", w.name)
                       .set("why", w.why)
                       .set("n", r.inputs.n)
                       .set("m", r.inputs.m)
                       .set("input_fnv", r.inputs.fnv)
                       .set("model", r.model)
                       .set("runs", r.runs)
                       .set("timed_runs", static_cast<std::uint64_t>(r.timed.size()))
                       .set("failed_runs",
                            static_cast<std::uint64_t>(r.failures.size()))
                       .set("failures", failures)
                       .set("end_to_end", e2e)
                       .set("per_layer", layers));
  }
  for (const auto& [key, in] : cache) fs::remove_all(in.path);
  std::error_code ignored;
  fs::remove(work, ignored);  // only when empty

  const Json doc =
      dmpc::bench::bench_envelope("perf",
                                  "Host performance: end-to-end and per-layer",
                                  false, args.get("commit", ""))
          .set("host", Json::object()
                           .set("nproc", static_cast<std::uint64_t>(
                                             ::sysconf(_SC_NPROCESSORS_ONLN)))
                           .set("cpu_model", cpu_model())
                           .set("build_type", DMPC_PERF_BUILD_TYPE)
                           .set("threads", threads))
          .set("seed", seed)
          .set("repeats", repeats)
          .set("workloads", workloads);
  const std::string path = (fs::path(out_dir) / "BENCH_PERF.json").string();
  dmpc::bench::write_json_file(doc, path);
  std::printf("wrote %s (%d failed runs)\n", path.c_str(), failed_total);
  return failed_total == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dmpc::ArgParser args(argc, argv);
    const Spec spec =
        load_spec(args.get("spec", "BENCHMARK.json"),
                  args.get("workloads", "bench/perf/workloads.json"));
    return args.has("workload") ? run_windowed(spec, args)
                                : run_full(spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmpc_perf: %s\n", e.what());
    return 2;
  }
}
