// dmpc — command-line front end.
//
//   dmpc gen      --family=gnm --n=1000 --m=8000 [--seed=1] --out=g.txt
//   dmpc stats    --in=g.txt [--threads=N]
//   dmpc mis      --in=g.txt [--eps=0.5] [--algorithm=auto|sparse|lowdeg]
//                 [--threads=N] [--out=mis.txt] [--trace=trace.json]
//                 [--trace-format=jsonl|chrome] [--fault-plan=plan.txt]
//                 [--max-retries=3] [--checkpoint=round|phase|off]
//                 [--certify=off|answer|full] [--metrics-out=metrics.json]
//                 [--profile] [--storage=memory|mmap] [--shard-dir=dir]
//                 [--storage-verify=off|open|paranoid]
//                 [--storage-fallback=none|memory] [--io-fault-plan=plan.txt]
//                 [--events=events.jsonl] [--events-filter=round,recovery,...]
//                 [--progress]
//   dmpc matching --in=g.txt [--eps=0.5] [--threads=N] [--out=matching.txt]
//                 [--trace=...] [--trace-format=...] [--fault-plan=...]
//                 [--certify=...] [--metrics-out=...] [--profile]
//                 [--storage=...] [--shard-dir=...] [--storage-verify=...]
//                 [--storage-fallback=...] [--io-fault-plan=...]
//                 [--events=...] [--events-filter=...] [--progress]
//   dmpc cover    --in=g.txt [--out=cover.txt]
//   dmpc color    --in=g.txt [--out=colors.txt]
//
// --threads=N uses N host threads for local computation (0 = hardware
// concurrency); outputs are byte-identical for every value. --fault-plan
// injects a deterministic fault schedule (docs/FAULTS.md) recovered via
// checkpoint/replay; solutions are byte-identical to the fault-free run.
// --certify runs checked mode (docs/ROBUSTNESS.md): the answer is verified
// before it is reported, a one-line certificate verdict is printed, and a
// failed certificate exits 3. --profile records the per-round load-skew
// timeline (docs/OBSERVABILITY.md): report JSON and --metrics-out gain the
// optional `profile` block (the schema version stays kReportSchemaVersion),
// and traces gain hostprof counters.
// --storage=mmap --shard-dir=<dir> solves out of a shard directory built by
// tools/shard_build instead of parsing --in (docs/STORAGE.md); answers and
// report JSON are byte-identical to the in-memory backend.
// --storage-verify re-computes the v2 manifest's shard CRC64s (open: once at
// open; paranoid: again when the solve attaches); a mismatch that survives
// the retry/quarantine ladder exits 2, or degrades to the in-memory backend
// under --storage-fallback=memory. --io-fault-plan injects a deterministic
// host-I/O fault schedule into the storage layer (docs/FAULTS.md); solutions
// are byte-identical to the fault-free run for any plan within budget.
// --events streams typed JSONL progress events (docs/OBSERVABILITY.md,
// "Live telemetry"); --events-filter narrows categories, --progress mirrors
// lifecycle events as a throttled stderr line, and the report gains the
// optional `events_summary` block.
// Invalid options (bad eps, unknown algorithm or trace format, a malformed
// input file or fault plan, ...) are reported with their typed status code
// and exit 2; so is an option the command never reads (a typo such as
// --certfy), which is rejected before anything is written. Internal check
// failures exit 1.
//
// Graphs are plain edge lists: "n m" header then "u v" per line.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "api/cli_options.hpp"
#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "apps/derand_coloring.hpp"
#include "apps/reductions.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "obs/events.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/parse_error.hpp"

namespace {

using dmpc::graph::EdgeId;
using dmpc::graph::Graph;
using dmpc::graph::NodeId;

int usage() {
  std::fprintf(stderr,
               "usage: dmpc <gen|stats|mis|matching|cover|color> [--options]\n"
               "solver commands accept --trace=<file> to record a span trace\n"
               "and --trace-format=jsonl|chrome to pick the encoding\n"
               "(chrome output loads in chrome://tracing or ui.perfetto.dev)\n"
               "mis/matching also accept --events=<file> for a JSONL\n"
               "progress-event stream and --progress for a live stderr line\n"
               "see the header of tools/dmpc_cli.cpp for details\n");
  return 2;
}

Graph generate(const dmpc::ArgParser& args) {
  const std::string family = args.get("family", "gnm");
  const auto n = static_cast<NodeId>(args.get_int("n", 1000));
  const auto m = static_cast<EdgeId>(args.get_int("m", 8 * args.get_int("n", 1000)));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (family == "gnm") return dmpc::graph::gnm(n, m, seed);
  if (family == "gnp") {
    return dmpc::graph::gnp(n, args.get_double("p", 0.01), seed);
  }
  if (family == "power_law") {
    return dmpc::graph::power_law(n, m, args.get_double("beta", 2.5), seed);
  }
  if (family == "regular") {
    return dmpc::graph::random_regular(
        n, static_cast<std::uint32_t>(args.get_int("d", 8)), seed);
  }
  if (family == "bipartite") {
    return dmpc::graph::random_bipartite(n / 2, n - n / 2, m, seed);
  }
  if (family == "grid") {
    const auto side = static_cast<NodeId>(args.get_int("side", 32));
    return dmpc::graph::grid(side, side);
  }
  if (family == "tree") return dmpc::graph::random_tree(n, seed);
  if (family == "star") return dmpc::graph::star(n - 1);
  if (family == "lopsided") {
    return dmpc::graph::lopsided(
        static_cast<NodeId>(args.get_int("core", 4)),
        static_cast<std::uint32_t>(args.get_int("core_degree", 64)), n, m,
        seed);
  }
  throw dmpc::ParseError(dmpc::ParseErrorCode::kBadToken,
                         "value of --family must be one of gnm, gnp, "
                         "power_law, regular, bipartite, grid, tree, star, "
                         "lopsided",
                         0, 0, dmpc::parse::clip(family));
}

/// Loads the plan file a --fault-plan / --io-fault-plan flag names: an
/// unreadable file is ParseError(kIoError), a malformed plan the typed
/// option error `invalid`.
template <typename Plan>
Plan load_plan(const std::string& path, const char* what,
               dmpc::StatusCode invalid) {
  errno = 0;
  std::ifstream in(path);
  if (!in.good()) {
    throw dmpc::ParseError(
        dmpc::ParseErrorCode::kIoError,
        std::string("cannot open ") + what + " '" + path +
            "': " + (errno != 0 ? std::strerror(errno) : "unknown error"));
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return Plan::parse(text.str());
  } catch (const dmpc::ParseError& e) {
    throw dmpc::OptionsError(
        dmpc::Status::error(invalid, path + ": " + e.what()));
  }
}

dmpc::CliSolveOptions solve_options(const dmpc::ArgParser& args) {
  // Flag parsing is shared with the fuzz harness (api/cli_options.hpp);
  // only file IO — loading the fault plans — happens here.
  dmpc::CliSolveOptions cli = dmpc::parse_solve_options(args);
  if (!cli.fault_plan_path.empty()) {
    cli.options.faults = load_plan<dmpc::mpc::FaultPlan>(
        cli.fault_plan_path, "fault plan", dmpc::StatusCode::kInvalidFaultPlan);
  }
  if (!cli.io_fault_plan_path.empty()) {
    cli.options.io_faults = load_plan<dmpc::mpc::IoFaultPlan>(
        cli.io_fault_plan_path, "io fault plan",
        dmpc::StatusCode::kInvalidIoFaultPlan);
  }
  return cli;
}

/// Opens an output file, or raises a typed option error (exit 2) carrying
/// the OS detail — an unwritable --out/--trace/--events/--metrics-out path
/// is a user mistake, not an internal invariant violation.
std::ofstream open_out(const std::string& path) {
  errno = 0;
  std::ofstream out(path);
  if (!out.good()) {
    throw dmpc::OptionsError(dmpc::Status::error(
        dmpc::StatusCode::kIoError,
        "cannot open '" + path + "' for writing: " +
            (errno != 0 ? std::strerror(errno) : "unknown error")));
  }
  return out;
}

// --metrics-out: the solve's full registry snapshot, all three
// sections grouped (docs/OBSERVABILITY.md). The model subtree is golden;
// host/recovery are diagnostic. Under --profile the skew timeline rides
// along as a `profile` block and with --events an `events_summary` block
// rides along too; the document carries the one report schema version.
void write_metrics(const std::string& path, const dmpc::Solver& solver,
                   const dmpc::SolveReport& report) {
  if (path.empty()) return;
  auto f = open_out(path);
  auto out = dmpc::Json::object()
                 .set("schema_version", dmpc::kReportSchemaVersion)
                 .set("registry", dmpc::obs::to_json(solver.metrics_snapshot()));
  if (report.profile.enabled) out.set("profile", to_json(report.profile));
  if (report.events.enabled) {
    out.set("events_summary", dmpc::to_json(report.events));
  }
  f << out.dump(2) << '\n';
}

void print_certificate(const dmpc::SolveReport& report) {
  if (report.certificate.mode == dmpc::verify::CertifyMode::kOff) return;
  std::printf("certificate[%s]: %s\n",
              dmpc::verify::certify_mode_name(report.certificate.mode),
              report.certificate.summary().c_str());
}

void print_report(const dmpc::SolveReport& report) {
  std::printf("algorithm=%s iterations=%llu rounds=%llu peak_load=%llu "
              "communication=%llu\n",
              report.algorithm_used.c_str(),
              (unsigned long long)report.iterations,
              (unsigned long long)report.metrics.rounds(),
              (unsigned long long)report.metrics.peak_machine_load(),
              (unsigned long long)report.metrics.total_communication());
  if (!report.recovery.clean()) {
    std::printf("recovery: faults=%llu retries=%llu replayed_rounds=%llu "
                "checkpoints=%llu\n",
                (unsigned long long)report.recovery.faults_injected,
                (unsigned long long)report.recovery.retries,
                (unsigned long long)report.recovery.replayed_rounds,
                (unsigned long long)report.recovery.checkpoints);
  }
  if (!report.recovery.storage.clean()) {
    const auto& s = report.recovery.storage;
    std::printf("storage recovery: io_faults=%llu retries=%llu "
                "checksum_failures=%llu quarantined=%llu degraded=%llu\n",
                (unsigned long long)s.io_faults_injected,
                (unsigned long long)s.retries,
                (unsigned long long)s.checksum_failures,
                (unsigned long long)s.quarantined_shards,
                (unsigned long long)s.degraded);
  }
}

/// Owns the trace output chain (--trace / --trace-format). Construction
/// reads the flags and open() creates the file, so a command can reject
/// unknown options in between. Members are heap-allocated so the sink's
/// stream pointer stays stable.
struct TraceSetup {
  explicit TraceSetup(const dmpc::ArgParser& args)
      : path(args.get("trace", "")),
        format(args.get("trace-format", "jsonl")),
        host_counters(args.has("profile")) {}

  std::string path;
  std::string format;
  bool host_counters;
  std::unique_ptr<std::ofstream> out;
  std::unique_ptr<dmpc::obs::TraceSink> sink;
  std::unique_ptr<dmpc::obs::TraceSession> session;

  void open() {
    if (path.empty()) return;
    out = std::make_unique<std::ofstream>(open_out(path));
    if (format == "chrome") {
      sink = std::make_unique<dmpc::obs::ChromeTraceSink>(out.get());
    } else if (format == "jsonl") {
      sink = std::make_unique<dmpc::obs::JsonlTraceSink>(out.get());
    } else {
      throw dmpc::OptionsError(dmpc::Status::error(
          dmpc::StatusCode::kInvalidTraceFormat,
          "unknown trace format '" + format + "' (expected jsonl|chrome)"));
    }
    session = std::make_unique<dmpc::obs::TraceSession>(sink.get());
    // --profile additionally records hostprof/* counter samples (wall/CPU/
    // alloc per host scope); without it the trace stream is unchanged.
    if (host_counters) session->enable_host_counters(true);
  }
  dmpc::obs::TraceSession* session_or_null() const { return session.get(); }
  void finish() {
    if (session) session->finish();
    if (out) out->close();
  }
};

/// Owns the progress-event chain (--events / --events-filter / --progress).
/// Members are heap-allocated so the sink's stream pointer stays stable.
/// The Solver finishes the bus itself (including on unwind paths); finish()
/// here is a belt-and-braces idempotent flush plus the file close.
struct EventSetup {
  std::unique_ptr<std::ofstream> out;
  std::unique_ptr<dmpc::obs::JsonlEventSink> sink;
  std::unique_ptr<dmpc::obs::ProgressLineSink> progress;
  std::unique_ptr<dmpc::obs::EventBus> bus;

  dmpc::obs::EventBus* bus_or_null() const { return bus.get(); }
  void finish() {
    if (bus) bus->finish();
    if (out) out->close();
  }
};

EventSetup make_events(const dmpc::CliSolveOptions& cli) {
  EventSetup e;
  if (cli.events_path.empty() && !cli.progress) return e;
  e.bus = std::make_unique<dmpc::obs::EventBus>();
  e.bus->set_filter(cli.events_filter);
  if (!cli.events_path.empty()) {
    e.out = std::make_unique<std::ofstream>(open_out(cli.events_path));
    e.sink = std::make_unique<dmpc::obs::JsonlEventSink>(e.out.get());
    e.bus->subscribe(e.sink.get());
  }
  if (cli.progress) {
    e.progress = std::make_unique<dmpc::obs::ProgressLineSink>(&std::cerr);
    e.bus->subscribe(e.progress.get());
  }
  return e;
}

int cmd_gen(const dmpc::ArgParser& args) {
  const std::string out = args.get("out", "");
  const auto g = generate(args);
  args.reject_unread();
  if (out.empty()) {
    dmpc::graph::write_edge_list(g, std::cout);
  } else {
    dmpc::graph::write_edge_list_file(g, out);
  }
  std::fprintf(stderr, "generated n=%u m=%llu max_degree=%u\n", g.num_nodes(),
               (unsigned long long)g.num_edges(), g.max_degree());
  return 0;
}

int cmd_stats(const dmpc::ArgParser& args) {
  const std::string in = args.get("in", "graph.txt");
  const auto ex = dmpc::exec::Executor::with_threads(
      static_cast<std::uint32_t>(args.get_int("threads", 1)));
  args.reject_unread();
  const auto g = dmpc::graph::read_edge_list_file(in);
  const auto stats = dmpc::graph::compute_stats(g, ex);
  std::printf("nodes=%u edges=%llu components=%u isolated=%u\n", stats.nodes,
              (unsigned long long)stats.edges, stats.components,
              stats.isolated_nodes);
  std::printf("degree: min=%u max=%u mean=%.2f density=%.5f\n",
              stats.min_degree, stats.max_degree, stats.mean_degree,
              stats.density);
  std::printf("triangles=%llu clustering=%.4f\n",
              (unsigned long long)stats.triangles, stats.clustering);
  std::printf("degree histogram (log2 buckets):");
  for (const auto count : dmpc::graph::degree_histogram_log2(g)) {
    std::printf(" %llu", (unsigned long long)count);
  }
  std::printf("\n");
  return 0;
}

std::size_t answer_size(const dmpc::MisSolution& solution) {
  return static_cast<std::size_t>(
      std::count(solution.in_set.begin(), solution.in_set.end(), true));
}

std::size_t answer_size(const dmpc::MatchingSolution& solution) {
  return solution.matching.size();
}

/// mis / matching: `solve` runs the problem on the opened backend,
/// `size_key` names the answer size in stdout and the JSON report, and
/// `write_out` writes the answer's --out lines.
template <typename Solve, typename WriteOut>
int cmd_solve(const dmpc::ArgParser& args, Solve&& solve,
              const char* size_key, WriteOut&& write_out) {
  TraceSetup trace(args);
  auto cli = solve_options(args);
  const std::string in = args.get("in", "graph.txt");
  const std::string out = args.get("out", "");
  const bool json = args.has("json");
  args.reject_unread();
  trace.open();
  auto events = make_events(cli);
  cli.options.trace = trace.session_or_null();
  cli.options.events = events.bus_or_null();
  const dmpc::Solver solver(cli.options);
  if (auto status = solver.validate(); !status.ok()) {
    throw dmpc::OptionsError(std::move(status));
  }
  const auto storage = solver.open_storage(in);
  const auto& g = storage->graph();
  const auto solution = solve(solver, *storage);
  trace.finish();
  events.finish();
  write_metrics(cli.metrics_out_path, solver, solution.report);
  const std::size_t size = answer_size(solution);
  if (json) {
    auto j = dmpc::to_json(solution.report);
    j.set(size_key, static_cast<std::uint64_t>(size));
    std::printf("%s\n", j.dump(2).c_str());
  } else {
    std::printf("%s=%zu\n", size_key, size);
    print_report(solution.report);
    print_certificate(solution.report);
  }
  if (!out.empty()) {
    auto f = open_out(out);
    write_out(f, g, solution);
  }
  return 0;
}

int cmd_cover(const dmpc::ArgParser& args) {
  TraceSetup trace(args);
  auto cli = solve_options(args);
  const std::string in = args.get("in", "graph.txt");
  const std::string out = args.get("out", "");
  args.reject_unread();
  const auto g = dmpc::graph::read_edge_list_file(in);
  trace.open();
  cli.options.trace = trace.session_or_null();
  const auto result = dmpc::apps::vertex_cover_2approx(g, cli.options);
  trace.finish();
  std::printf("cover_size=%llu matching_lower_bound=%llu (<= 2x OPT)\n",
              (unsigned long long)result.cover_size,
              (unsigned long long)result.matching_size);
  print_report(result.report);
  if (!out.empty()) {
    auto f = open_out(out);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (result.in_cover[v]) f << v << '\n';
    }
  }
  return 0;
}

int cmd_color(const dmpc::ArgParser& args) {
  const std::string in = args.get("in", "graph.txt");
  const std::string out = args.get("out", "");
  const bool native = args.has("native");
  // Only the Solver-backed coloring reads the trace and solve options.
  std::optional<TraceSetup> trace;
  dmpc::CliSolveOptions cli;
  if (!native) {
    trace.emplace(args);
    cli = solve_options(args);
  }
  args.reject_unread();
  const auto g = dmpc::graph::read_edge_list_file(in);
  std::vector<std::uint32_t> colors;
  if (native) {
    // Native derandomized trial coloring (apps/derand_coloring.hpp).
    auto result = dmpc::apps::derand_coloring(g);
    std::printf("colors_used=%u (palette Delta+1 = %u) rounds=%llu "
                "mpc_rounds=%llu\n",
                result.colors_used, g.max_degree() + 1,
                (unsigned long long)result.rounds,
                (unsigned long long)result.metrics.rounds());
    colors = std::move(result.color);
  } else {
    trace->open();
    cli.options.trace = trace->session_or_null();
    auto result = dmpc::apps::delta_plus_one_coloring(g, cli.options);
    trace->finish();
    std::printf("colors_used=%u (palette Delta+1 = %u)\n",
                result.colors_used, g.max_degree() + 1);
    print_report(result.report);
    colors = std::move(result.color);
  }
  if (!out.empty()) {
    auto f = open_out(out);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      f << v << ' ' << colors[v] << '\n';
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const dmpc::ArgParser args(argc - 1, argv + 1);
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "mis") {
      return cmd_solve(
          args,
          [](const dmpc::Solver& solver, const dmpc::mpc::Storage& storage) {
            return solver.mis(storage);
          },
          "mis_size",
          [](std::ostream& f, const Graph& g,
             const dmpc::MisSolution& solution) {
            for (NodeId v = 0; v < g.num_nodes(); ++v) {
              if (solution.in_set[v]) f << v << '\n';
            }
          });
    }
    if (command == "matching") {
      return cmd_solve(
          args,
          [](const dmpc::Solver& solver, const dmpc::mpc::Storage& storage) {
            return solver.maximal_matching(storage);
          },
          "matching_size",
          [](std::ostream& f, const Graph& g,
             const dmpc::MatchingSolution& solution) {
            for (const auto e : solution.matching) {
              f << g.edge(e).u << ' ' << g.edge(e).v << '\n';
            }
          });
    }
    if (command == "cover") return cmd_cover(args);
    if (command == "color") return cmd_color(args);
  } catch (const dmpc::OptionsError& e) {
    // Caller input error: report the typed status, not an assertion.
    std::fprintf(stderr, "error: %s\n", e.status().to_string().c_str());
    return 2;
  } catch (const dmpc::verify::CertificationError& e) {
    // The answer failed checked-mode verification. Distinct exit code so
    // scripts can tell "bad input" (2) from "bad answer" (3).
    std::fprintf(stderr, "error: certification failed: %s\n", e.what());
    return 3;
  } catch (const dmpc::ParseError& e) {
    // Untrusted-input parse error (edge list, fault plan, flag value):
    // same exit class as other caller input errors.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const dmpc::mpc::FaultError& e) {
    // The fault plan exceeded the recovery policy at runtime: typed
    // unrecoverable-fault outcome, same exit class as option errors.
    std::fprintf(stderr, "error: unrecoverable_fault: %s\n", e.what());
    return 2;
  } catch (const dmpc::mpc::StorageError& e) {
    // The storage backend is unusable after the full recovery ladder
    // (retries, quarantine, fallback): a host-environment failure, same
    // exit class as input errors — never a silent wrong answer.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const dmpc::CheckFailure& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
