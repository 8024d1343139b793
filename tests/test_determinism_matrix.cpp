// Determinism matrix: generator families × thread counts.
//
// The engine's contract (docs/API.md, "Determinism under parallelism") is
// that for a fixed graph and fixed options excluding `threads`, solutions,
// reports, and JSONL traces are *byte-identical* for every thread count.
// This test pins that across three generator families and threads in
// {1, 2, hardware}.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "field/batch_eval.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "mpc/io_faults.hpp"
#include "mpc/shard_format.hpp"
#include "mpc/storage.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace dmpc {
namespace {

using graph::Graph;

const std::uint32_t kThreadCounts[] = {1, 2, 3, 0};  // 0 = hardware concurrency

/// The golden model section of a Solver's per-solve registry. One more
/// byte-comparable artifact per run: the metrics-snapshot axis of the matrix.
std::string registry_model_json(const Solver& solver) {
  return obs::to_json_section(solver.metrics_snapshot(),
                              obs::MetricSection::kModel,
                              /*include_zero=*/false)
      .dump();
}

struct RunArtifacts {
  std::vector<bool> mis_in_set;
  std::string mis_report_json;
  std::string mis_trace;
  std::string mis_registry_json;
  std::vector<graph::EdgeId> matching;
  std::string matching_report_json;
  std::string matching_trace;
};

/// When `storage` is non-null the Solver's storage overloads run (attaching
/// the backend to the cluster and exporting kHost residency gauges) on
/// storage->graph(); otherwise the plain-graph overloads run on `g`.
RunArtifacts run_all(const Graph& g, std::uint32_t threads,
                     const mpc::Storage* storage = nullptr) {
  RunArtifacts out;
  {
    std::ostringstream trace_out;
    obs::JsonlTraceSink sink(&trace_out, /*include_wall_time=*/false);
    obs::TraceSession session(&sink);
    SolveOptions options;
    options.threads = threads;
    options.trace = &session;
    const Solver solver(options);
    const auto solution =
        storage != nullptr ? solver.mis(*storage) : solver.mis(g);
    session.finish();
    out.mis_in_set = solution.in_set;
    out.mis_report_json = to_json(solution.report).dump();
    out.mis_trace = trace_out.str();
    out.mis_registry_json = registry_model_json(solver);
  }
  {
    std::ostringstream trace_out;
    obs::JsonlTraceSink sink(&trace_out, /*include_wall_time=*/false);
    obs::TraceSession session(&sink);
    SolveOptions options;
    options.threads = threads;
    options.trace = &session;
    const Solver solver(options);
    const auto solution = storage != nullptr
                              ? solver.maximal_matching(*storage)
                              : solver.maximal_matching(g);
    session.finish();
    out.matching = solution.matching;
    out.matching_report_json = to_json(solution.report).dump();
    out.matching_trace = trace_out.str();
  }
  return out;
}

void expect_matrix_identical(const Graph& g, const char* family) {
  const auto reference = run_all(g, /*threads=*/1);
  EXPECT_FALSE(reference.mis_trace.empty()) << family;
  EXPECT_FALSE(reference.matching_trace.empty()) << family;
  EXPECT_NE(reference.mis_registry_json.find("\"mpc/rounds\""),
            std::string::npos)
      << family;
  for (std::uint32_t threads : kThreadCounts) {
    const auto run = run_all(g, threads);
    EXPECT_EQ(run.mis_in_set, reference.mis_in_set)
        << family << " threads=" << threads;
    EXPECT_EQ(run.mis_report_json, reference.mis_report_json)
        << family << " threads=" << threads;
    EXPECT_EQ(run.mis_trace, reference.mis_trace)
        << family << " threads=" << threads;
    EXPECT_EQ(run.mis_registry_json, reference.mis_registry_json)
        << family << " threads=" << threads;
    EXPECT_EQ(run.matching, reference.matching)
        << family << " threads=" << threads;
    EXPECT_EQ(run.matching_report_json, reference.matching_report_json)
        << family << " threads=" << threads;
    EXPECT_EQ(run.matching_trace, reference.matching_trace)
        << family << " threads=" << threads;
  }
}

TEST(DeterminismMatrix, Gnm) {
  // Dense enough to take the sparsification path.
  expect_matrix_identical(graph::gnm(600, 4800, 11), "gnm");
}

// ---- Fault axis ----
//
// The recovery engine's contract extends the matrix by one dimension: for a
// fixed graph and fixed options, solutions, reports (modulo the "recovery"
// counter block), and traces are byte-identical across {no faults, crashes,
// drops} × thread counts.

struct FaultRun {
  std::vector<bool> in_set;
  std::vector<graph::EdgeId> matching;
  std::string report_json;  ///< MIS report with the recovery ledger zeroed.
  std::string trace;
  std::string registry_json;  ///< Model section only — fault-plan-invariant.
  std::uint64_t faults_injected = 0;
};

FaultRun run_with_faults(const Graph& g, std::uint32_t threads,
                         const mpc::FaultPlan& plan) {
  FaultRun out;
  std::ostringstream trace_out;
  obs::JsonlTraceSink sink(&trace_out, /*include_wall_time=*/false);
  obs::TraceSession session(&sink);
  SolveOptions options;
  options.threads = threads;
  options.trace = &session;
  options.faults = plan;
  const Solver solver(options);
  EXPECT_TRUE(solver.validate().ok()) << solver.validate().to_string();
  const auto solution = solver.mis(g);
  session.finish();
  out.in_set = solution.in_set;
  out.registry_json = registry_model_json(solver);
  out.faults_injected = solution.report.recovery.faults_injected;
  auto comparable = solution.report;
  comparable.recovery = mpc::RecoveryStats{};
  out.report_json = to_json(comparable).dump();
  out.trace = trace_out.str();
  out.matching = Solver(options).maximal_matching(g).matching;
  return out;
}

void expect_fault_matrix_identical(const Graph& g, const char* family) {
  mpc::FaultPlan crashes;
  crashes.add({mpc::FaultKind::kCrash, /*round=*/2, /*machine=*/0});
  crashes.add({mpc::FaultKind::kCrash, /*round=*/7, /*machine=*/1});
  mpc::FaultPlan drops;
  drops.add({mpc::FaultKind::kDrop, /*round=*/3, /*machine=*/0,
             /*message=*/0});
  drops.add({mpc::FaultKind::kDrop, /*round=*/9, /*machine=*/2,
             /*message=*/1});

  const auto reference = run_with_faults(g, /*threads=*/1, mpc::FaultPlan{});
  EXPECT_EQ(reference.faults_injected, 0u) << family;
  const std::uint32_t fault_threads[] = {1, 0};
  const struct {
    const char* name;
    const mpc::FaultPlan* plan;
  } axes[] = {{"none", nullptr}, {"crashes", &crashes}, {"drops", &drops}};
  for (const auto& axis : axes) {
    for (std::uint32_t threads : fault_threads) {
      const auto run = run_with_faults(
          g, threads, axis.plan != nullptr ? *axis.plan : mpc::FaultPlan{});
      EXPECT_EQ(run.in_set, reference.in_set)
          << family << " faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.report_json, reference.report_json)
          << family << " faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.trace, reference.trace)
          << family << " faults=" << axis.name << " threads=" << threads;
      // kModel metrics are defined to be fault-plan-invariant: retries
      // re-export the replayed pipeline's charges, not double-counted ones.
      EXPECT_EQ(run.registry_json, reference.registry_json)
          << family << " faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.matching, reference.matching)
          << family << " faults=" << axis.name << " threads=" << threads;
      if (axis.plan != nullptr) {
        EXPECT_GT(run.faults_injected, 0u)
            << family << " faults=" << axis.name << " threads=" << threads
            << ": plan did not fire";
      }
    }
  }
}

TEST(DeterminismMatrix, FaultAxisSparsification) {
  expect_fault_matrix_identical(graph::gnm(400, 3200, 14), "gnm");
}

TEST(DeterminismMatrix, FaultAxisLowDegree) {
  expect_fault_matrix_identical(graph::random_regular(400, 4, 15),
                                "random_regular");
}

TEST(DeterminismMatrix, RandomRegular) {
  // Low-degree path.
  expect_matrix_identical(graph::random_regular(500, 4, 12), "random_regular");
}

// ---- Certify axis ----
//
// Checked mode must not perturb determinism: with certify=full, solutions,
// certified reports, and traces stay byte-identical across thread counts
// and fault axes, and the certify=off trace is a byte prefix of the
// certify=full trace (the "verify/certify" span is appended, nothing else
// moves).

struct CertifiedRun {
  std::vector<bool> in_set;
  std::string report_json;  ///< Recovery ledger zeroed, certificate kept.
  std::string trace;
};

CertifiedRun run_certified(const Graph& g, std::uint32_t threads,
                           const mpc::FaultPlan& plan,
                           verify::CertifyMode mode) {
  CertifiedRun out;
  std::ostringstream trace_out;
  obs::JsonlTraceSink sink(&trace_out, /*include_wall_time=*/false);
  obs::TraceSession session(&sink);
  SolveOptions options;
  options.threads = threads;
  options.trace = &session;
  options.faults = plan;
  options.certify = mode;
  const auto solution = Solver(options).mis(g);
  session.finish();
  out.in_set = solution.in_set;
  auto comparable = solution.report;
  comparable.recovery = mpc::RecoveryStats{};
  out.report_json = to_json(comparable).dump();
  out.trace = trace_out.str();
  return out;
}

TEST(DeterminismMatrix, CertifyAxis) {
  const Graph g = graph::gnm(400, 3200, 16);
  mpc::FaultPlan crashes;
  crashes.add({mpc::FaultKind::kCrash, /*round=*/2, /*machine=*/0});

  const auto reference = run_certified(g, /*threads=*/1, mpc::FaultPlan{},
                                       verify::CertifyMode::kFull);
  EXPECT_NE(reference.report_json.find("\"certificate\""), std::string::npos);
  EXPECT_NE(reference.trace.find("verify/certify"), std::string::npos);

  const std::uint32_t thread_counts[] = {1, 2, 0};
  const struct {
    const char* name;
    const mpc::FaultPlan* plan;
  } axes[] = {{"none", nullptr}, {"crashes", &crashes}};
  for (const auto& axis : axes) {
    for (std::uint32_t threads : thread_counts) {
      const auto run = run_certified(
          g, threads, axis.plan != nullptr ? *axis.plan : mpc::FaultPlan{},
          verify::CertifyMode::kFull);
      EXPECT_EQ(run.in_set, reference.in_set)
          << "faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.report_json, reference.report_json)
          << "faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.trace, reference.trace)
          << "faults=" << axis.name << " threads=" << threads;
    }
  }

  // certify=off produces a byte-prefix of the certify=full trace.
  const auto off = run_certified(g, /*threads=*/1, mpc::FaultPlan{},
                                 verify::CertifyMode::kOff);
  ASSERT_LT(off.trace.size(), reference.trace.size());
  EXPECT_EQ(reference.trace.compare(0, off.trace.size(), off.trace), 0);
}

TEST(DeterminismMatrix, PowerLaw) {
  expect_matrix_identical(graph::power_law(400, 1600, 2.5, 13), "power_law");
}

// ---- Pipelines on the observer axes ----
//
// The profiler and events axes run every pipeline the Solver dispatches to,
// so each cluster the pipelines build (including the lowdeg line-graph
// cluster) is checked to carry the solve's observers.

struct PipelineCase {
  const char* name;
  bool matching;          ///< Maximal matching, else MIS.
  const char* algorithm;  ///< The SolveReport::algorithm_used kAuto picks.
  Graph g;
};

std::vector<PipelineCase> pipeline_cases() {
  const Graph dense = graph::gnm(400, 3200, 14);
  const Graph regular = graph::random_regular(400, 4, 15);
  return {{"mis/sparsification", false, "sparsification", dense},
          {"matching/sparsification", true, "sparsification", dense},
          {"mis/lowdeg", false, "lowdeg", regular},
          {"matching/lowdeg", true, "lowdeg", regular}};
}

struct CaseSolution {
  std::vector<std::uint64_t> answer;  ///< MIS node ids or matched edge ids.
  SolveReport report;
};

/// Solve `c` on its graph, or through the storage overload when `storage`
/// is set, and check the dispatch took the case's algorithm.
CaseSolution solve_case(const Solver& solver, const PipelineCase& c,
                        const mpc::Storage* storage = nullptr) {
  CaseSolution out;
  if (c.matching) {
    auto solution = storage != nullptr ? solver.maximal_matching(*storage)
                                       : solver.maximal_matching(c.g);
    out.answer.assign(solution.matching.begin(), solution.matching.end());
    out.report = std::move(solution.report);
  } else {
    auto solution =
        storage != nullptr ? solver.mis(*storage) : solver.mis(c.g);
    for (std::uint64_t v = 0; v < solution.in_set.size(); ++v) {
      if (solution.in_set[v]) out.answer.push_back(v);
    }
    out.report = std::move(solution.report);
  }
  EXPECT_EQ(out.report.algorithm_used, c.algorithm) << c.name;
  return out;
}

// ---- Profiler axis ----
//
// The round profiler (obs/profiler.hpp) extends the matrix: with
// SolveOptions::profile on, the report's `profile` block — and the whole
// profiled report around it — must stay byte-identical across
// thread counts and admissible fault plans, because every observation and
// commit happens on the orchestrating thread and only on committing
// attempts.

struct ProfiledRun {
  std::vector<std::uint64_t> answer;
  std::string report_json;   ///< Schema 7, recovery ledger zeroed.
  std::string profile_json;  ///< The profile block alone.
  std::string registry_json;
};

ProfiledRun run_profiled(const PipelineCase& c, std::uint32_t threads,
                         const mpc::FaultPlan& plan) {
  SolveOptions options;
  options.threads = threads;
  options.faults = plan;
  options.profile = true;
  const Solver solver(options);
  const CaseSolution solution = solve_case(solver, c);
  ProfiledRun out;
  out.answer = solution.answer;
  out.profile_json = obs::to_json(solution.report.profile).dump();
  out.registry_json = registry_model_json(solver);
  auto comparable = solution.report;
  comparable.recovery = mpc::RecoveryStats{};
  out.report_json = to_json(comparable).dump();
  return out;
}

TEST(DeterminismMatrix, ProfilerAxis) {
  mpc::FaultPlan crashes;
  crashes.add({mpc::FaultKind::kCrash, /*round=*/2, /*machine=*/0});
  crashes.add({mpc::FaultKind::kCrash, /*round=*/7, /*machine=*/1});

  for (const PipelineCase& c : pipeline_cases()) {
    const auto reference = run_profiled(c, /*threads=*/1, mpc::FaultPlan{});
    EXPECT_NE(reference.report_json.find("\"profile\""), std::string::npos)
        << c.name;
    EXPECT_NE(reference.report_json.find("\"schema_version\":9"),
              std::string::npos)
        << c.name;
    EXPECT_NE(reference.profile_json.find("\"records_committed\""),
              std::string::npos)
        << c.name;
    // The exported profile counters land in the golden registry section.
    EXPECT_NE(reference.registry_json.find("\"profile/records\""),
              std::string::npos)
        << c.name;

    const struct {
      const char* name;
      const mpc::FaultPlan* plan;
    } axes[] = {{"none", nullptr}, {"crashes", &crashes}};
    for (const auto& axis : axes) {
      for (std::uint32_t threads : kThreadCounts) {
        const auto run = run_profiled(
            c, threads, axis.plan != nullptr ? *axis.plan : mpc::FaultPlan{});
        EXPECT_EQ(run.answer, reference.answer)
            << c.name << " faults=" << axis.name << " threads=" << threads;
        EXPECT_EQ(run.profile_json, reference.profile_json)
            << c.name << " faults=" << axis.name << " threads=" << threads;
        EXPECT_EQ(run.report_json, reference.report_json)
            << c.name << " faults=" << axis.name << " threads=" << threads;
        EXPECT_EQ(run.registry_json, reference.registry_json)
            << c.name << " faults=" << axis.name << " threads=" << threads;
      }
    }
  }
}

// ---- Storage axis ----
//
// Residency is host-side only (docs/STORAGE.md): solving out of a mapped
// shard directory — single-shard or many — must leave solutions, reports,
// traces, and the golden registry section byte-identical to the in-memory
// CSR, crossed with every thread count.

TEST(DeterminismMatrix, StorageAxis) {
  namespace fs = std::filesystem;
  const Graph g = graph::gnm(600, 4800, 11);
  const fs::path dir =
      fs::temp_directory_path() / "dmpc_determinism_storage_axis";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string edge_path = (dir / "g.txt").string();
  graph::write_edge_list_file(g, edge_path);

  // Backend instances: the heap CSR, a single mapped shard (default target
  // sizing), and a many-shard layout (forced small shards).
  mpc::InMemoryStorage memory(graph::read_edge_list_file(edge_path));
  mpc::shard_build(edge_path, (dir / "one").string(), {});
  mpc::ShardBuildOptions small;
  small.shard_words = 2048;
  mpc::shard_build(edge_path, (dir / "many").string(), small);
  const auto one = mpc::MmapShardStorage::open((dir / "one").string());
  const auto many = mpc::MmapShardStorage::open((dir / "many").string());
  ASSERT_EQ(one->stats().shards, 1u);
  ASSERT_GT(many->stats().shards, 1u);

  const auto reference = run_all(g, /*threads=*/1);
  const struct {
    const char* name;
    const mpc::Storage* storage;
  } backends[] = {{"memory", &memory}, {"mmap1", one.get()},
                  {"mmapN", many.get()}};
  for (const auto& backend : backends) {
    for (std::uint32_t threads : kThreadCounts) {
      const auto run =
          run_all(backend.storage->graph(), threads, backend.storage);
      EXPECT_EQ(run.mis_in_set, reference.mis_in_set)
          << backend.name << " threads=" << threads;
      EXPECT_EQ(run.mis_report_json, reference.mis_report_json)
          << backend.name << " threads=" << threads;
      EXPECT_EQ(run.mis_trace, reference.mis_trace)
          << backend.name << " threads=" << threads;
      EXPECT_EQ(run.mis_registry_json, reference.mis_registry_json)
          << backend.name << " threads=" << threads;
      EXPECT_EQ(run.matching, reference.matching)
          << backend.name << " threads=" << threads;
      EXPECT_EQ(run.matching_report_json, reference.matching_report_json)
          << backend.name << " threads=" << threads;
      EXPECT_EQ(run.matching_trace, reference.matching_trace)
          << backend.name << " threads=" << threads;
    }
  }
  fs::remove_all(dir);
}

// ---- I/O fault axis ----
//
// The storage recovery ladder (docs/STORAGE.md, "Integrity & degraded
// mode") extends the matrix once more: for a fixed shard directory, any
// admissible IoFaultPlan whose events resolve within the retry/quarantine
// budget must leave solutions, reports (modulo the recovery ledger),
// traces, and the golden registry section byte-identical to the fault-free
// open, crossed with thread counts.

struct IoFaultRun {
  std::vector<bool> in_set;
  std::vector<graph::EdgeId> matching;
  std::string report_json;  ///< Recovery ledger (host + storage) zeroed.
  std::string trace;
  std::string registry_json;
};

IoFaultRun run_with_io_faults(const mpc::Storage& storage,
                              std::uint32_t threads) {
  IoFaultRun out;
  std::ostringstream trace_out;
  obs::JsonlTraceSink sink(&trace_out, /*include_wall_time=*/false);
  obs::TraceSession session(&sink);
  SolveOptions options;
  options.threads = threads;
  options.trace = &session;
  const Solver solver(options);
  const auto solution = solver.mis(storage);
  session.finish();
  out.in_set = solution.in_set;
  out.registry_json = registry_model_json(solver);
  auto comparable = solution.report;
  comparable.recovery = mpc::RecoveryStats{};
  out.report_json = to_json(comparable).dump();
  out.trace = trace_out.str();
  out.matching = Solver(options).maximal_matching(storage).matching;
  return out;
}

TEST(DeterminismMatrix, IoFaultAxis) {
  namespace fs = std::filesystem;
  const Graph g = graph::gnm(600, 4800, 11);
  const fs::path dir =
      fs::temp_directory_path() / "dmpc_determinism_io_fault_axis";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string edge_path = (dir / "g.txt").string();
  graph::write_edge_list_file(g, edge_path);
  mpc::ShardBuildOptions small;
  small.shard_words = 2048;
  const std::string shard_dir = (dir / "shards").string();
  mpc::shard_build(edge_path, shard_dir, small);

  // Transient open-time failures, an injected checksum flip that heals on
  // retry, and persistent verify-time corruption that forces a quarantine
  // re-read — all within the default RecoveryOptions budget.
  mpc::IoFaultPlan transient;
  transient.add({mpc::IoFaultKind::kEio, /*shard=*/0, mpc::kAccessOpen,
                 /*delay=*/1, /*attempts=*/2});
  transient.add({mpc::IoFaultKind::kShortRead, /*shard=*/1, mpc::kAccessOpen,
                 /*delay=*/1, /*attempts=*/1});
  transient.add({mpc::IoFaultKind::kSlow, /*shard=*/0, mpc::kAccessVerify,
                 /*delay=*/3, /*attempts=*/1});
  mpc::IoFaultPlan heal;
  heal.add({mpc::IoFaultKind::kCorrupt, /*shard=*/0, mpc::kAccessVerify,
            /*delay=*/1, /*attempts=*/1});
  mpc::IoFaultPlan quarantine;
  quarantine.add({mpc::IoFaultKind::kCorrupt, /*shard=*/1, mpc::kAccessVerify,
                  /*delay=*/1, /*attempts=*/4});

  const auto clean =
      mpc::MmapShardStorage::open(shard_dir, {}, mpc::VerifyMode::kOpen);
  ASSERT_GT(clean->stats().shards, 1u);
  const auto reference = run_with_io_faults(*clean, /*threads=*/1);

  const struct {
    const char* name;
    const mpc::IoFaultPlan* plan;
  } axes[] = {{"none", nullptr},
              {"transient", &transient},
              {"heal", &heal},
              {"quarantine", &quarantine}};
  const std::uint32_t fault_threads[] = {1, 0};
  for (const auto& axis : axes) {
    for (std::uint32_t threads : fault_threads) {
      // A fresh open per cell: injected faults fire against the open/verify
      // access ordinals, so the recovery ladder runs in every cell.
      const auto storage = mpc::MmapShardStorage::open(
          shard_dir, {}, mpc::VerifyMode::kOpen,
          axis.plan != nullptr ? *axis.plan : mpc::IoFaultPlan{});
      if (axis.plan != nullptr) {
        EXPECT_GT(storage->io_recovery().io_faults_injected, 0u)
            << "io_faults=" << axis.name << " threads=" << threads
            << ": plan did not fire";
      }
      if (axis.plan == &quarantine) {
        EXPECT_EQ(storage->io_recovery().quarantined_shards, 1u);
      }
      const auto run = run_with_io_faults(*storage, threads);
      EXPECT_EQ(run.in_set, reference.in_set)
          << "io_faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.report_json, reference.report_json)
          << "io_faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.trace, reference.trace)
          << "io_faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.registry_json, reference.registry_json)
          << "io_faults=" << axis.name << " threads=" << threads;
      EXPECT_EQ(run.matching, reference.matching)
          << "io_faults=" << axis.name << " threads=" << threads;
    }
  }
  fs::remove_all(dir);
}

// ---- Events axis ----
//
// The progress-event stream (obs/events.hpp) extends the matrix: the model
// projection — model-section events with host timestamps stripped — must be
// byte-identical across thread counts × fault plans × storage backends, and
// attaching a bus must not perturb the solution or the report beyond the
// `events_summary` block (whose recovery/filtered counts are plan-scoped
// and zeroed for comparison, like the recovery ledger).

struct EventsRun {
  std::vector<std::uint64_t> answer;
  std::string model_projection;
  std::string report_json;  ///< Recovery ledger + plan-scoped counts zeroed.
  std::uint64_t model_events = 0;
};

EventsRun run_with_events(const PipelineCase& c, std::uint32_t threads,
                          const mpc::FaultPlan& plan,
                          const mpc::Storage* storage = nullptr) {
  obs::CollectorEventSink collector;
  obs::EventBus bus;
  EXPECT_TRUE(bus.subscribe(&collector));
  SolveOptions options;
  options.threads = threads;
  options.faults = plan;
  options.events = &bus;
  const Solver solver(options);
  const CaseSolution solution = solve_case(solver, c, storage);
  EventsRun out;
  out.answer = solution.answer;
  out.model_projection = obs::model_projection(collector.events());
  out.model_events = solution.report.events.model_events;
  auto comparable = solution.report;
  comparable.recovery = mpc::RecoveryStats{};
  comparable.events.recovery_events = 0;
  comparable.events.filtered_events = 0;
  out.report_json = to_json(comparable).dump();
  return out;
}

TEST(DeterminismMatrix, EventsAxisFaults) {
  mpc::FaultPlan crashes;
  crashes.add({mpc::FaultKind::kCrash, /*round=*/2, /*machine=*/0});
  crashes.add({mpc::FaultKind::kCrash, /*round=*/7, /*machine=*/1});
  mpc::FaultPlan drops;
  drops.add({mpc::FaultKind::kDrop, /*round=*/3, /*machine=*/0,
             /*message=*/0});

  for (const PipelineCase& c : pipeline_cases()) {
    const auto reference = run_with_events(c, /*threads=*/1, mpc::FaultPlan{});
    EXPECT_GT(reference.model_events, 0u) << c.name;
    // Round charges reach the bus only through the pipeline's cluster.
    EXPECT_NE(reference.model_projection.find("\"round_completed\""),
              std::string::npos)
        << c.name;
    // Attaching a bus must not perturb the answer.
    EXPECT_EQ(reference.answer, solve_case(Solver(), c).answer) << c.name;

    const struct {
      const char* name;
      const mpc::FaultPlan* plan;
    } axes[] = {{"none", nullptr}, {"crashes", &crashes}, {"drops", &drops}};
    for (const auto& axis : axes) {
      for (std::uint32_t threads : kThreadCounts) {
        const auto run = run_with_events(
            c, threads, axis.plan != nullptr ? *axis.plan : mpc::FaultPlan{});
        EXPECT_EQ(run.answer, reference.answer)
            << c.name << " faults=" << axis.name << " threads=" << threads;
        EXPECT_EQ(run.model_projection, reference.model_projection)
            << c.name << " faults=" << axis.name << " threads=" << threads;
        EXPECT_EQ(run.report_json, reference.report_json)
            << c.name << " faults=" << axis.name << " threads=" << threads;
      }
    }
  }
}

TEST(DeterminismMatrix, EventsAxisStorage) {
  namespace fs = std::filesystem;
  const Graph g = graph::gnm(600, 4800, 11);
  const fs::path dir =
      fs::temp_directory_path() / "dmpc_determinism_events_storage";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string edge_path = (dir / "g.txt").string();
  graph::write_edge_list_file(g, edge_path);
  mpc::ShardBuildOptions small;
  small.shard_words = 2048;
  const std::string shard_dir = (dir / "shards").string();
  mpc::shard_build(edge_path, shard_dir, small);

  // An io-fault plan whose events heal within budget: the storage rungs land
  // in the recovery section, so the model projection must not move.
  mpc::IoFaultPlan heal;
  heal.add({mpc::IoFaultKind::kEio, /*shard=*/0, mpc::kAccessOpen,
            /*delay=*/1, /*attempts=*/2});

  mpc::InMemoryStorage memory(graph::read_edge_list_file(edge_path));
  const PipelineCase mis_case{"mis/sparsification", false, "sparsification",
                              g};
  const auto reference =
      run_with_events(mis_case, /*threads=*/1, mpc::FaultPlan{});
  const struct {
    const char* name;
    bool io_faults;
  } cells[] = {{"memory", false}, {"mmap", false}, {"mmap-io-fault", true}};
  for (const auto& cell : cells) {
    for (std::uint32_t threads : kThreadCounts) {
      std::unique_ptr<const mpc::Storage> owned;
      const mpc::Storage* storage = &memory;
      if (std::string(cell.name) != "memory") {
        owned = mpc::MmapShardStorage::open(
            shard_dir, {}, mpc::VerifyMode::kOpen,
            cell.io_faults ? heal : mpc::IoFaultPlan{});
        storage = owned.get();
      }
      const auto run =
          run_with_events(mis_case, threads, mpc::FaultPlan{}, storage);
      EXPECT_EQ(run.answer, reference.answer)
          << cell.name << " threads=" << threads;
      EXPECT_EQ(run.model_projection, reference.model_projection)
          << cell.name << " threads=" << threads;
    }
  }
  fs::remove_all(dir);
}

// ---- Batch-dispatch axis ----
//
// The batched field kernels (field/batch_eval.hpp) promise exact modular
// arithmetic on every lane width, so forcing any supported dispatch path —
// scalar, AVX2, NEON — crossed with any thread count must leave solutions,
// reports, traces, and the golden registry section byte-identical.

TEST(DeterminismMatrix, BatchDispatchAxis) {
  const auto g = graph::gnm(600, 4800, 11);
  field::set_batch_dispatch(field::BatchDispatch::kScalar);
  const auto reference = run_all(g, /*threads=*/1);
  for (const auto dispatch : field::supported_batch_dispatches()) {
    field::set_batch_dispatch(dispatch);
    for (std::uint32_t threads : kThreadCounts) {
      const auto run = run_all(g, threads);
      const char* name = field::batch_dispatch_name(dispatch);
      EXPECT_EQ(run.mis_in_set, reference.mis_in_set)
          << "dispatch=" << name << " threads=" << threads;
      EXPECT_EQ(run.mis_report_json, reference.mis_report_json)
          << "dispatch=" << name << " threads=" << threads;
      EXPECT_EQ(run.mis_trace, reference.mis_trace)
          << "dispatch=" << name << " threads=" << threads;
      EXPECT_EQ(run.mis_registry_json, reference.mis_registry_json)
          << "dispatch=" << name << " threads=" << threads;
      EXPECT_EQ(run.matching, reference.matching)
          << "dispatch=" << name << " threads=" << threads;
      EXPECT_EQ(run.matching_report_json, reference.matching_report_json)
          << "dispatch=" << name << " threads=" << threads;
      EXPECT_EQ(run.matching_trace, reference.matching_trace)
          << "dispatch=" << name << " threads=" << threads;
    }
  }
  field::reset_batch_dispatch();
}

// ---- Concurrency axis ----
//
// Every solve writes into its own metrics registry (obs::RegistryScope), so
// solves running at the same time in one process must report exactly what
// each reports alone: the report JSON, whose "registry" block is the solve's
// model section, and the model section of metrics_snapshot().

TEST(DeterminismMatrix, ConcurrentSolvesAxis) {
  const std::vector<PipelineCase> cases = {
      {"mis/sparsification", false, "sparsification",
       graph::gnm(1024, 16384, 100)},
      {"matching/sparsification", true, "sparsification",
       graph::gnm(1024, 16384, 101)},
      {"mis/lowdeg", false, "lowdeg", graph::random_regular(2048, 4, 102)},
      {"matching/lowdeg", true, "lowdeg", graph::random_regular(1024, 4, 103)}};
  struct Artifacts {
    std::string report_json;
    std::string registry_json;
  };
  const auto run = [&](std::size_t i) {
    SolveOptions options;
    options.threads = 2;
    options.profile = i == 1;
    const Solver solver(options);
    const CaseSolution solution = solve_case(solver, cases[i]);
    return Artifacts{to_json(solution.report).dump(),
                     registry_model_json(solver)};
  };
  std::vector<Artifacts> serial;
  for (std::size_t i = 0; i < cases.size(); ++i) serial.push_back(run(i));

  std::vector<Artifacts> concurrent(cases.size());
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    threads.emplace_back([&, i] {
      // Start together so the solves overlap.
      ready.fetch_add(1);
      while (ready.load() < cases.size()) std::this_thread::yield();
      concurrent[i] = run(i);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(concurrent[i].report_json, serial[i].report_json)
        << cases[i].name;
    EXPECT_EQ(concurrent[i].registry_json, serial[i].registry_json)
        << cases[i].name;
  }
}

}  // namespace
}  // namespace dmpc
