#include "api/solver.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "lowdeg/lowdeg_solver.hpp"
#include "matching/det_matching.hpp"
#include "mis/det_mis.hpp"
#include "mpc/storage.hpp"
#include "obs/events.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/openmetrics.hpp"
#include "obs/trace.hpp"
#include "verify/certifier.hpp"

namespace dmpc {

namespace {

// Copy the SolveOptions fields every pipeline config shares. The three
// config types deliberately have identical field names, so one template
// replaces the former per-call-site copies.
template <typename Config>
Config pipeline_config(const SolveOptions& options, mpc::ClusterSetup setup) {
  Config config;
  config.eps = options.eps;
  config.space_headroom = options.space_headroom;
  config.setup = std::move(setup);
  return config;
}

// Fold a pipeline's per-iteration sparsifier measurements into the report's
// audit block (checked by the Certifier in full mode).
void fill_audit(verify::SparsifyAudit* audit,
                const std::vector<matching::IterationReport>& reports,
                std::uint64_t degree_cap) {
  audit->degree_cap = degree_cap;
  for (const auto& r : reports) {
    ++audit->iterations;
    if (r.sparsify_stages == 0) continue;
    audit->stages += r.sparsify_stages;
    audit->max_degree = std::max(audit->max_degree, r.sparse_max_degree);
    audit->worst_degree_ratio =
        std::max(audit->worst_degree_ratio, r.worst.degree_ratio);
    audit->worst_xv_ratio = std::min(audit->worst_xv_ratio, r.worst.xv_ratio);
    audit->max_window_multiplier =
        std::max(audit->max_window_multiplier, r.worst.window_multiplier);
  }
}

// The per-problem half of Theorem 1's dispatch. Matching is MIS on L(G)
// (§2.1), so a solve differs between the two problems only in what these
// traits name: the event label, the two pipelines, the answer field, the
// answer claims and the replay diff's unit.
template <typename Solution>
struct Problem;

template <>
struct Problem<MisSolution> {
  static constexpr const char* kEvent = "mis";
  static constexpr const char* kDiffAt = "on node";
  static auto lowdeg(const graph::Graph& g, const lowdeg::LowDegConfig& c) {
    return lowdeg::lowdeg_mis(g, c);
  }
  static const auto& lowdeg_run(const lowdeg::LowDegMisResult& r) { return r; }
  static auto sparse(const graph::Graph& g, const mis::DetMisConfig& c) {
    return mis::det_mis(g, c);
  }
  static auto& answer(auto& record) { return record.in_set; }
  static std::vector<verify::ClaimResult> claims(
      const verify::Certifier& certifier, const graph::Graph& g,
      const MisSolution& s) {
    return {certifier.check_mis_independence(g, s.in_set),
            certifier.check_mis_maximality(g, s.in_set)};
  }
};

template <>
struct Problem<MatchingSolution> {
  static constexpr const char* kEvent = "matching";
  static constexpr const char* kDiffAt = "at matching slot";
  static auto lowdeg(const graph::Graph& g, const lowdeg::LowDegConfig& c) {
    return lowdeg::lowdeg_matching(g, c);
  }
  static const auto& lowdeg_run(const lowdeg::LowDegMatchingResult& r) {
    return r.line_mis;
  }
  static auto sparse(const graph::Graph& g,
                     const matching::DetMatchingConfig& c) {
    return matching::det_maximal_matching(g, c);
  }
  static auto& answer(auto& record) { return record.matching; }
  static std::vector<verify::ClaimResult> claims(
      const verify::Certifier& certifier, const graph::Graph& g,
      const MatchingSolution& s) {
    return {certifier.check_matching_validity(g, s.matching),
            certifier.check_matching_maximality(g, s.matching)};
  }
};

// Scope guard clearing Solver::active_storage_ even when the solve throws
// (CertificationError, FaultError), so a later plain-graph solve on the same
// Solver cannot pick up a dangling backend pointer.
class ActiveStorageScope {
 public:
  ActiveStorageScope(const mpc::Storage** slot, const mpc::Storage* value)
      : slot_(slot) {
    *slot_ = value;
  }
  ~ActiveStorageScope() { *slot_ = nullptr; }
  ActiveStorageScope(const ActiveStorageScope&) = delete;
  ActiveStorageScope& operator=(const ActiveStorageScope&) = delete;

 private:
  const mpc::Storage** slot_;
};

}  // namespace

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidEps:
      return "invalid_eps";
    case StatusCode::kInvalidSpaceHeadroom:
      return "invalid_space_headroom";
    case StatusCode::kInvalidDispatchSlack:
      return "invalid_dispatch_slack";
    case StatusCode::kInvalidThreads:
      return "invalid_threads";
    case StatusCode::kInvalidAlgorithm:
      return "invalid_algorithm";
    case StatusCode::kInvalidTraceFormat:
      return "invalid_trace_format";
    case StatusCode::kInvalidClusterOverrides:
      return "invalid_cluster_overrides";
    case StatusCode::kInvalidFaultPlan:
      return "invalid_fault_plan";
    case StatusCode::kInvalidIoFaultPlan:
      return "invalid_io_fault_plan";
    case StatusCode::kInvalidRetryBudget:
      return "invalid_retry_budget";
    case StatusCode::kUnrecoverableFault:
      return "unrecoverable_fault";
    case StatusCode::kInvalidCertifyMode:
      return "invalid_certify_mode";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kInvalidStorage:
      return "invalid_storage";
    case StatusCode::kInvalidEventFilter:
      return "invalid_event_filter";
    case StatusCode::kInvalidMetricsFormat:
      return "invalid_metrics_format";
  }
  return "unknown";
}

Status Solver::validate(const SolveOptions& options) {
  // NaN comparisons are false, so `!(x > 0)` style predicates reject NaN too.
  if (!(options.eps > 0.0 && options.eps < 1.0)) {
    return Status::error(
        StatusCode::kInvalidEps,
        "eps must satisfy 0 < eps < 1 (machine space is n^eps), got " +
            std::to_string(options.eps));
  }
  if (std::round(8.0 / options.eps) > kMaxInvDelta) {
    std::ostringstream got;
    got << options.eps;
    return Status::error(
        StatusCode::kInvalidEps,
        "eps must be at least the floor 0.01 (1/delta = round(8/eps) <= 800), "
        "got " + got.str());
  }
  if (!(options.space_headroom > 0.0)) {
    return Status::error(
        StatusCode::kInvalidSpaceHeadroom,
        "space_headroom must be > 0, got " +
            std::to_string(options.space_headroom));
  }
  if (!(options.dispatch_slack > 0.0)) {
    return Status::error(
        StatusCode::kInvalidDispatchSlack,
        "dispatch_slack must be > 0, got " +
            std::to_string(options.dispatch_slack));
  }
  if (options.threads > kMaxThreads) {
    return Status::error(
        StatusCode::kInvalidThreads,
        "threads must be <= " + std::to_string(kMaxThreads) +
            " (0 = hardware concurrency), got " +
            std::to_string(options.threads));
  }
  if (options.cluster.machine_space == 1) {
    return Status::error(
        StatusCode::kInvalidClusterOverrides,
        "cluster.machine_space override must be 0 (auto) or >= 2, got 1");
  }
  if (options.storage.backend == mpc::StorageBackend::kMmap &&
      options.storage.shard_dir.empty()) {
    return Status::error(
        StatusCode::kInvalidStorage,
        "storage.backend = mmap requires storage.shard_dir (a directory "
        "written by shard_build)");
  }
  if (options.storage.backend == mpc::StorageBackend::kMemory &&
      !options.storage.shard_dir.empty()) {
    return Status::error(
        StatusCode::kInvalidStorage,
        "storage.shard_dir is set but storage.backend is memory — pass "
        "--storage=mmap or drop the shard directory");
  }
  if (const std::string problem = options.faults.check(); !problem.empty()) {
    return Status::error(StatusCode::kInvalidFaultPlan, problem);
  }
  if (const std::string problem = options.io_faults.check();
      !problem.empty()) {
    return Status::error(StatusCode::kInvalidIoFaultPlan, problem);
  }
  if (options.recovery.backoff_rounds < 1) {
    return Status::error(StatusCode::kInvalidRetryBudget,
                         "recovery.backoff_rounds must be >= 1, got " +
                             std::to_string(options.recovery.backoff_rounds));
  }
  if (options.recovery.max_retries > mpc::RecoveryOptions::kMaxRetries) {
    return Status::error(
        StatusCode::kInvalidRetryBudget,
        "recovery.max_retries must be <= " +
            std::to_string(mpc::RecoveryOptions::kMaxRetries) + ", got " +
            std::to_string(options.recovery.max_retries));
  }
  // Static unrecoverability: reject plans that provably exceed the policy
  // instead of letting the run fail midway with a FaultError.
  for (const mpc::FaultEvent& event : options.faults.events()) {
    const bool needs_replay = event.kind == mpc::FaultKind::kCrash ||
                              event.kind == mpc::FaultKind::kDrop;
    if (!needs_replay) continue;
    if (options.recovery.checkpoint == mpc::CheckpointMode::kOff) {
      return Status::error(
          StatusCode::kUnrecoverableFault,
          std::string("fault plan schedules a ") +
              mpc::fault_kind_name(event.kind) + " at round " +
              std::to_string(event.round) +
              " but recovery.checkpoint is off — nothing to roll back to");
    }
    if (event.attempts > options.recovery.max_retries) {
      return Status::error(
          StatusCode::kUnrecoverableFault,
          std::string("fault plan schedules a ") +
              mpc::fault_kind_name(event.kind) + " at round " +
              std::to_string(event.round) + " firing on " +
              std::to_string(event.attempts) +
              " attempts, exceeding recovery.max_retries = " +
              std::to_string(options.recovery.max_retries));
    }
  }
  return Status();
}

void Solver::require_valid() const {
  Status s = validate(options_);
  if (!s.ok()) throw OptionsError(std::move(s));
}

exec::Executor Solver::make_executor() const {
  return exec::Executor::with_threads(options_.threads);
}

mpc::ClusterConfig Solver::cluster_config(std::uint64_t n,
                                          std::uint64_t m) const {
  require_valid();
  return mpc::apply_overrides(
      matching::sparsification_cluster_config(options_.eps,
                                              options_.space_headroom, n, m),
      options_.cluster);
}

mpc::ClusterSetup Solver::cluster_setup(obs::RoundProfiler* profiler) const {
  mpc::ClusterSetup setup;
  setup.threads = options_.threads;
  setup.overrides = options_.cluster;
  setup.faults = options_.faults;
  setup.recovery = options_.recovery;
  setup.trace = options_.trace;
  setup.profiler = profiler;
  setup.events = options_.events;
  return setup;
}

mpc::Cluster Solver::cluster(std::uint64_t n, std::uint64_t m) const {
  // cluster_config already carries the overrides; re-applying is the
  // identity.
  return mpc::Cluster(cluster_config(n, m), cluster_setup(nullptr));
}

void Solver::emit_solve_started(const char* algorithm,
                                const graph::Graph& g) const {
  if (!obs::events_enabled(options_.events)) return;
  obs::ProgressEvent e;
  e.type = obs::EventType::kSolveStarted;
  e.label = algorithm;
  e.value = static_cast<std::int64_t>(g.num_nodes());
  e.detail = "m=" + std::to_string(g.num_edges());
  options_.events->emit(std::move(e));
}

void Solver::emit_solve_finished(SolveReport* report) const {
  obs::EventBus* bus = options_.events;
  if (bus == nullptr) return;
  if (!bus->finished()) {
    obs::ProgressEvent e;
    e.type = obs::EventType::kSolveFinished;
    e.label = report->algorithm_used;
    e.round = report->metrics.rounds();
    e.rounds = report->metrics.rounds();
    e.comm_words = report->metrics.total_communication();
    e.value = static_cast<std::int64_t>(report->iterations);
    bus->emit(std::move(e));
  }
  report->events.enabled = true;
  report->events.stream_version = obs::kEventStreamVersion;
  report->events.model_events = bus->model_events();
  report->events.recovery_events = bus->recovery_events();
  report->events.filtered_events = bus->filtered_events();
  // The bus is per-solve: flush and close it here so sinks are complete the
  // moment the entry point returns (the unwind path does the same).
  bus->finish();
}

void Solver::emit_storage_events(const mpc::Storage& storage) const {
  if (!obs::events_enabled(options_.events)) return;
  // Storage recovery rungs fire at open/verify time, before any cluster
  // (and hence any streaming hook) exists; summarize the backend's ledger
  // into the recovery section instead.
  const mpc::IoRecoveryStats& io = storage.io_recovery();
  const std::string backend =
      mpc::storage_backend_name(storage.backend());
  if (io.retries > 0) {
    obs::ProgressEvent e;
    e.type = obs::EventType::kRecoveryAttempt;
    e.label = "storage/io";
    e.value = static_cast<std::int64_t>(io.retries);
    e.detail = backend;
    options_.events->emit(std::move(e));
  }
  if (io.quarantined_shards > 0) {
    obs::ProgressEvent e;
    e.type = obs::EventType::kRecovered;
    e.label = "storage/quarantine";
    e.value = static_cast<std::int64_t>(io.quarantined_shards);
    e.detail = backend;
    options_.events->emit(std::move(e));
  }
  if (io.degraded > 0) {
    obs::ProgressEvent e;
    e.type = obs::EventType::kStorageDegraded;
    e.label = "storage/degraded";
    e.value = static_cast<std::int64_t>(io.degraded);
    e.detail = backend;
    options_.events->emit(std::move(e));
  }
}

void Solver::flush_observers_on_unwind() const {
  // Order matters for the unwind contract: the event bus first (the stream
  // consumer learns the solve died), then the trace session (ChromeTraceSink
  // buffers its whole document until finish — without this, a
  // CertificationError/FaultError would leave a truncated or empty trace
  // file). Both finishes are idempotent, so the CLI's own finish() calls
  // after catching remain safe.
  if (options_.events != nullptr) options_.events->finish();
  if (options_.trace != nullptr) options_.trace->finish();
}

void Solver::capture_registry_delta(const obs::MetricsSnapshot& before,
                                    SolveReport* report) const {
  auto& registry = obs::MetricsRegistry::global();
  if (active_storage_ != nullptr) {
    // The backend's cumulative recovery ledger (open-time retries and
    // quarantines included) rides in the report's recovery.storage block.
    report->recovery.storage.merge(active_storage_->io_recovery());
  }
  report->metrics.export_to(registry);
  report->recovery.export_to(registry);
  report->profile.export_to(registry);
  if (active_storage_ != nullptr) {
    mpc::export_storage_host_stats(*active_storage_);
  }
  obs::sample_host(registry);
  report->registry = obs::MetricsSnapshot::delta(registry.snapshot(), before);
  last_snapshot_ = report->registry;
}

double Solver::dispatch_degree_bound(std::uint64_t n) const {
  const double delta = options_.eps / 8.0;
  const double bound = std::pow(static_cast<double>(n), delta);
  return options_.dispatch_slack * bound + options_.dispatch_slack;
}

bool Solver::low_degree_regime(const graph::Graph& g) const {
  require_valid();
  if (g.num_nodes() < 2) return true;
  const double n = static_cast<double>(g.num_nodes());
  // §5 needs Delta = O(n^{delta}); additionally, at finite n the pipeline's
  // binding constraint is the 2-hop space check (Delta^2 words on one
  // machine, and the matching path runs on the line graph whose degree is
  // ~2 Delta), so require that to fit in S with room to spare.
  const double s_budget = options_.space_headroom * std::pow(n, options_.eps);
  const double d = static_cast<double>(g.max_degree());
  const double line_degree = 2.0 * d;
  return d <= dispatch_degree_bound(g.num_nodes()) &&
         line_degree * line_degree <= s_budget;
}

template <typename Solution>
Solution Solver::solve(const graph::Graph& g) const {
  using P = Problem<Solution>;
  require_valid();
  emit_solve_started(P::kEvent, g);
  try {
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    Solution solution;
    SolveReport& report = solution.report;
    obs::RoundProfiler profiler;
    obs::RoundProfiler* prof = options_.profile ? &profiler : nullptr;
    const bool lowdeg =
        options_.algorithm == Algorithm::kLowDegree ||
        (options_.algorithm == Algorithm::kAuto && low_degree_regime(g));
    if (lowdeg) {
      const auto config = pipeline_config<lowdeg::LowDegConfig>(
          options_, cluster_setup(prof));
      auto result = P::lowdeg(g, config);
      P::answer(solution) = std::move(P::answer(result));
      const auto& run = P::lowdeg_run(result);
      report.algorithm_used = "lowdeg";
      report.iterations = run.stages;
      report.metrics = run.metrics;
      report.recovery = run.recovery;
    } else {
      const auto config = pipeline_config<matching::DetMatchingConfig>(
          options_, cluster_setup(prof));
      auto result = P::sparse(g, config);
      P::answer(solution) = std::move(P::answer(result));
      report.algorithm_used = "sparsification";
      report.iterations = result.iterations;
      report.metrics = result.metrics;
      report.recovery = result.recovery;
      fill_audit(&report.sparsify, result.reports,
                 matching::params_for(config, g.num_nodes()).degree_cap());
    }
    if (prof != nullptr) report.profile = prof->snapshot();
    capture_registry_delta(before, &report);
    finalize_certificate(g, &solution);
    emit_solve_finished(&report);
    return solution;
  } catch (...) {
    flush_observers_on_unwind();
    throw;
  }
}

void Solver::storage_gate(const mpc::Storage& storage) const {
  storage_integrity_ = verify::Certifier::skipped(
      verify::Claim::kStorageIntegrity);
  const bool paranoid =
      storage.verify_mode() == mpc::VerifyMode::kParanoid;
  const bool certifying = options_.certify != verify::CertifyMode::kOff;
  if (!paranoid && !certifying) return;
  // Run the integrity pass before the pipeline ever dereferences the
  // adjacency: a corrupt shard must fail the gate, never feed the solve.
  const mpc::IntegrityReport integrity = storage.verify_integrity();
  storage_integrity_ = verify::Certifier::check_storage_integrity(integrity);
  if (integrity.status != mpc::IntegrityReport::Status::kFailed) return;
  if (certifying) {
    verify::Certificate certificate;
    certificate.mode = options_.certify;
    certificate.claims.push_back(storage_integrity_);
    last_certificate_ = certificate;
    throw verify::CertificationError(std::move(certificate));
  }
  throw mpc::StorageError(mpc::StorageErrorCode::kChecksumMismatch,
                          "paranoid re-verification failed: " +
                              integrity.detail,
                          integrity.bad_shard);
}

verify::ClaimResult Solver::storage_claim() const {
  if (active_storage_ == nullptr) {
    return verify::Certifier::skipped(verify::Claim::kStorageIntegrity);
  }
  return storage_integrity_;
}

template <typename Solution>
Solution Solver::solve(const mpc::Storage& storage) const {
  require_valid();
  ActiveStorageScope scope(&active_storage_, &storage);
  try {
    storage_gate(storage);
  } catch (...) {
    // The gate throws before the graph solve's own unwind handler exists;
    // close the sinks here so a failed integrity gate still leaves complete
    // artifacts.
    flush_observers_on_unwind();
    throw;
  }
  emit_storage_events(storage);
  return solve<Solution>(storage.graph());
}

std::unique_ptr<mpc::Storage> Solver::open_storage(
    const std::string& input_path, const graph::EdgeListLimits& limits) const {
  require_valid();
  return mpc::open_storage(options_.storage, input_path, limits,
                           options_.io_faults, options_.recovery);
}

const verify::Certificate& Solver::certificate() const {
  return last_certificate_;
}

const obs::MetricsSnapshot& Solver::metrics_snapshot() const {
  return last_snapshot_;
}

std::string Solver::metrics_openmetrics() const {
  return obs::to_openmetrics(last_snapshot_);
}

verify::Certificate Solver::certify_common(
    const SolveReport& report,
    std::vector<verify::ClaimResult> answer_claims,
    const std::function<bool(std::uint64_t*, std::uint64_t*,
                             std::string*)>& replay) const {
  verify::Certificate certificate;
  certificate.mode = options_.certify;
  certificate.claims = std::move(answer_claims);

  const verify::Certifier certifier(make_executor());
  certificate.claims.push_back(certifier.check_space_accounting(
      report.metrics, report.metrics.machine_space()));

  if (options_.certify == verify::CertifyMode::kFull) {
    certificate.claims.push_back(
        certifier.check_sparsifier_degree_cap(report.sparsify));
    certificate.claims.push_back(
        certifier.check_sparsifier_invariants(report.sparsify));
    certificate.claims.push_back(
        certifier.check_metrics_consistency(report.metrics));
    // Replay identity runs unconditionally in full mode: under a fault plan
    // it checks the recovery contract (faulted == fault-free, bytewise);
    // without one it re-derives the answer and checks reproducibility. The
    // resulting claim bytes are identical either way, so certified report
    // JSON stays comparable across fault axes (modulo the recovery block).
    std::uint64_t compared = 0, diff_index = 0;
    std::string detail;
    const bool identical = replay(&compared, &diff_index, &detail);
    certificate.claims.push_back(verify::Certifier::replay_claim(
        identical, compared, diff_index, detail));
  }
  // The pre-solve storage gate's verdict (skipped for plain-graph solves
  // and backends without checksums): a certified answer speaks to the
  // integrity of the bytes it was computed from.
  certificate.claims.push_back(storage_claim());
  return certificate;
}

void Solver::record_certificate(verify::Certificate certificate,
                                SolveReport* report) const {
  // Certification happens after the pipeline (and its cluster) are gone; a
  // still-attached session would snapshot freed Metrics, so detach before
  // opening the verify span. The span comes strictly after every pipeline
  // span: a certify=off trace is a byte-prefix of the certify=on trace.
  if (obs::enabled(options_.trace)) {
    options_.trace->attach_metrics(nullptr);
    obs::Span span(options_.trace, "verify/certify");
    span.arg("mode", std::string(verify::certify_mode_name(certificate.mode)));
    span.arg("claims", static_cast<std::uint64_t>(certificate.claims.size()));
    span.arg("failures", certificate.failures());
  }
  // One model-section certificate_claim event per claim, emitted before the
  // failure throw below so a failing certificate is visible in the stream.
  // Claim order is the fixed certificate order, so the sequence is golden
  // for a fixed certify mode.
  if (obs::events_enabled(options_.events)) {
    for (const verify::ClaimResult& claim : certificate.claims) {
      obs::ProgressEvent e;
      e.type = obs::EventType::kCertificateClaim;
      e.label = verify::claim_name(claim.claim);
      e.value = claim.verdict == verify::Verdict::kFail ? 0 : 1;
      e.detail = verify::verdict_name(claim.verdict);
      options_.events->emit(std::move(e));
    }
  }
  report->certificate = certificate;
  last_certificate_ = std::move(certificate);
  if (!last_certificate_.ok()) {
    throw verify::CertificationError(last_certificate_);
  }
}

template <typename Solution>
void Solver::finalize_certificate(const graph::Graph& g,
                                  Solution* solution) const {
  using P = Problem<Solution>;
  if (options_.certify == verify::CertifyMode::kOff) {
    last_certificate_ = verify::Certificate{};
    return;
  }
  const verify::Certifier certifier(make_executor());
  auto replay = [&](std::uint64_t* compared, std::uint64_t* diff_index,
                    std::string* detail) {
    SolveOptions replay_options = options_;
    replay_options.faults = mpc::FaultPlan{};
    replay_options.trace = nullptr;
    replay_options.events = nullptr;  // replay must not pollute the stream
    replay_options.certify = verify::CertifyMode::kOff;
    const Solution clean = Solver(replay_options).solve<Solution>(g);
    const auto& ours = P::answer(*solution);
    const auto& theirs = P::answer(clean);
    *compared = ours.size();
    // Only a matching can differ in length: an MIS answer has one entry
    // per node.
    if (ours.size() != theirs.size()) {
      *diff_index = std::min(ours.size(), theirs.size());
      *detail = "run matched " + std::to_string(ours.size()) +
                " edges, fault-free replay matched " +
                std::to_string(theirs.size());
      return false;
    }
    for (std::uint64_t i = 0; i < ours.size(); ++i) {
      if (ours[i] != theirs[i]) {
        *diff_index = i;
        *detail = std::string("fault-free replay disagrees ") + P::kDiffAt +
                  " " + std::to_string(i);
        return false;
      }
    }
    return true;
  };
  record_certificate(
      certify_common(solution->report, P::claims(certifier, g, *solution),
                     replay),
      &solution->report);
}

MisSolution Solver::mis(const graph::Graph& g) const {
  return solve<MisSolution>(g);
}

MatchingSolution Solver::maximal_matching(const graph::Graph& g) const {
  return solve<MatchingSolution>(g);
}

MisSolution Solver::mis(const mpc::Storage& storage) const {
  return solve<MisSolution>(storage);
}

MatchingSolution Solver::maximal_matching(const mpc::Storage& storage) const {
  return solve<MatchingSolution>(storage);
}

}  // namespace dmpc
