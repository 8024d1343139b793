// Public façade types: options, reports, and solution records for the
// deterministic MIS / maximal matching API (consumed through dmpc::Solver,
// api/solver.hpp).
//
// The API implements Theorem 1's dispatch: with Delta <= n^{delta} the §5
// low-degree pipeline runs in O(log Delta + log log n) rounds; otherwise the
// §3/§4 sparsification pipeline runs in O(log n) = O(log Delta) rounds. Both
// are fully deterministic: same graph + same options => identical output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "mpc/faults.hpp"
#include "mpc/metrics.hpp"
#include "mpc/storage.hpp"
#include "obs/events.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "verify/certificate.hpp"

namespace dmpc::obs {
class TraceSession;
}

namespace dmpc {

enum class Algorithm {
  kAuto,            ///< Theorem-1 dispatch on Delta vs n^{delta}.
  kSparsification,  ///< §3/§4 pipeline (any Delta).
  kLowDegree,       ///< §5 pipeline (requires small Delta).
};

struct SolveOptions {
  Algorithm algorithm = Algorithm::kAuto;
  /// Machine-space exponent: S = Theta(n^eps) words. Valid range (0, 1).
  double eps = 0.5;
  /// Constant-factor headroom on S (absorbs the paper's O(n^{8 delta})).
  /// Must be > 0.
  double space_headroom = 8.0;
  /// Theorem-1 dispatch threshold slack: the low-degree path is considered
  /// when Delta <= dispatch_slack * n^{eps/8} + dispatch_slack (and the
  /// 2-hop structures fit in S). Must be > 0.
  double dispatch_slack = 4.0;
  /// Host threads for per-machine local computation (seed evaluation,
  /// conditional-expectation sweeps, degree scans): 0 = hardware
  /// concurrency, 1 = serial. Model-level local computation is free, so
  /// this changes wall time only — solutions, reports, and golden JSONL
  /// traces are byte-identical for every value (see docs/API.md).
  std::uint32_t threads = 1;
  /// Cluster provisioning. The Solver owns the derivation (S and M are
  /// auto-sized from n, eps, and space_headroom when this is default);
  /// non-zero fields pin an exact geometry. Hand-building mpc::ClusterConfig
  /// at call sites is deprecated in favor of these overrides.
  mpc::ClusterOverrides cluster;
  /// Graph residency selection: the in-memory CSR (default) or a mapped
  /// shard directory built by tools/shard_build (backend == kMmap requires
  /// storage.shard_dir, and vice versa — anything else is kInvalidStorage).
  /// Residency never touches the model: solutions, kModel metrics, report
  /// JSON, and traces are byte-identical across backends (docs/STORAGE.md).
  mpc::StorageOptions storage;
  /// Deterministic fault schedule injected into the simulated cluster. The
  /// default (empty) plan is the fault-free run; see docs/FAULTS.md for the
  /// identical-output recovery contract.
  mpc::FaultPlan faults;
  /// Deterministic host-I/O fault schedule injected into the storage layer
  /// (short reads, EIO, checksum corruption, mmap failures, slow I/O keyed
  /// on shard index and access ordinal — mpc/io_faults.hpp). A no-op for
  /// the in-memory backend. The recovery ladder (retry -> quarantine ->
  /// degrade) guarantees byte-identical solutions, reports (modulo the
  /// recovery block), and traces for any admissible plan within budget.
  mpc::IoFaultPlan io_faults;
  /// Retry/checkpoint policy tolerating `faults` (validated against it:
  /// a plan that provably exceeds the budget is kUnrecoverableFault).
  mpc::RecoveryOptions recovery;
  /// Optional tracing sink (non-owning; null = tracing off, zero cost).
  obs::TraceSession* trace = nullptr;
  /// Optional progress-event bus (non-owning; null = events off, zero
  /// cost). When attached, the solve emits the typed live-telemetry stream
  /// (obs/events.hpp): solve/phase/round lifecycle in the model section —
  /// byte-identical across thread counts, fault plans, and storage backends
  /// — and checkpoint/retry/storage rungs in the recovery section. The
  /// report then carries an `events_summary` block; without a bus it has
  /// no such key and is otherwise byte-identical. The Solver finishes
  /// (flushes) the bus before returning — including on
  /// CertificationError/FaultError unwind paths.
  obs::EventBus* events = nullptr;
  /// Round profiler: record the per-round load-skew timeline (per-machine
  /// load observations folded into max/mean/Gini/top-k records — see
  /// obs/profiler.hpp) and embed it as the report's optional `profile`
  /// block. The profile is model-deterministic: byte-identical across
  /// thread counts and admissible fault plans. Off by default; when off,
  /// reports and traces are byte-identical to a build without the profiler.
  bool profile = false;
  /// Checked mode: kOff returns the answer uncertified (zero cost); kAnswer
  /// certifies the answer itself (MIS/matching claims + space accounting);
  /// kFull additionally certifies the sparsifier invariants, metrics
  /// consistency, and — under an active fault plan — replay identity
  /// against a fault-free re-run. A failed certificate throws a typed
  /// verify::CertificationError; certification never perturbs solutions,
  /// metrics, or traces (it appends a verify/certify span after the
  /// pipeline span and adds a report block).
  verify::CertifyMode certify = verify::CertifyMode::kOff;
};

struct SolveReport {
  std::string algorithm_used;     ///< "sparsification" or "lowdeg".
  std::uint64_t iterations = 0;   ///< Outer iterations / stages.
  mpc::Metrics metrics;           ///< Rounds, peak load, communication.
  mpc::RecoveryStats recovery;    ///< Fault/retry ledger (all-zero clean).
  /// Worst-case sparsifier stage measurements (sparsification path only;
  /// zero-stage audit on the lowdeg path).
  verify::SparsifyAudit sparsify;
  /// The certificate produced in checked mode (empty when certify == kOff).
  verify::Certificate certificate;
  /// The snapshot of this solve's own obs::MetricsRegistry (taken after the
  /// pipeline, before any certification replay). The model
  /// section is golden — byte-identical across runs, thread counts, and
  /// admissible fault plans — and is the only section serialized into
  /// report JSON (as the "registry" block); recovery/host sections are for
  /// benches and --metrics-out.
  obs::MetricsSnapshot registry;
  /// Skew-timeline snapshot (enabled == false unless SolveOptions::profile
  /// was set). Model-deterministic; serialized as the `profile` block.
  obs::ProfileSnapshot profile;
  /// Event-stream summary (enabled == false unless SolveOptions::events
  /// was attached). Serialized as the `events_summary` block; model_events
  /// is model-deterministic, recovery/filtered counts are plan-scoped.
  obs::EventsSummary events;
};

/// Version of the serialized report schema, the same for every report and
/// for the CLI's --metrics-out document. Bumped to 2 when the
/// "schema_version" and "recovery" keys were added, to 3 when the
/// "certificate" and "sparsify_audit" blocks were added, and to 4 when the
/// "registry" block (model-section metrics registry) was added;
/// downstream parsers should branch on this rather than sniffing keys,
/// except for the two optional blocks below. Version 5 added the optional `profile` block (round-profiler skew
/// timeline). Version 6 added the recovery block's "storage" sub-object
/// (host storage-layer recovery ledger) and the storage_integrity
/// certificate claim. Versions 7 and 8 stamped profiled and event-observed
/// reports. Version 9 retires those flag-dependent stamps: every report
/// carries 9, and `profile` (SolveOptions::profile) and `events_summary`
/// (SolveOptions::events) are optional blocks present exactly when their
/// feature was on.
inline constexpr std::uint32_t kReportSchemaVersion = 9;

struct MisSolution {
  std::vector<bool> in_set;
  SolveReport report;
};

struct MatchingSolution {
  std::vector<graph::EdgeId> matching;
  SolveReport report;
};

}  // namespace dmpc
