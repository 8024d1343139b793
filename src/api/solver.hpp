// dmpc::Solver — the configured-facade form of the public API.
//
// Lifecycle:
//   1. Construct with SolveOptions (or default).
//   2. validate() — typed Status per rejectable option (no DMPC_CHECK
//      aborts for caller input errors). Optional: the solve entry points
//      re-validate and throw OptionsError on bad options.
//   3. mis(g) / maximal_matching(g) — Theorem-1 dispatch, any number of
//      times, on any graphs; the Solver is immutable and (for a serial
//      executor) stateless across calls.
//
// Determinism contract: for a fixed graph and fixed options *excluding
// `threads` and `storage`*, solutions, SolveReports, and golden JSONL traces
// are byte-identical for every threads value and storage backend (see
// docs/API.md, "Determinism under parallelism", and docs/STORAGE.md).
// The Solver is the only solve entry point: the former free-function
// wrappers (solve_mis / solve_maximal_matching) were removed — see the
// migration table in docs/API.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/solve_types.hpp"
#include "api/status.hpp"
#include "exec/parallel.hpp"
#include "graph/graph.hpp"
#include "verify/certificate.hpp"

namespace dmpc {

class Solver {
 public:
  /// Hard cap on SolveOptions::threads — a guard against garbage input
  /// (e.g. passing a node count where a thread count was meant), not a
  /// tuning limit.
  static constexpr std::uint32_t kMaxThreads = 4096;
  /// Largest 1/delta = round(8/eps) accepted, i.e. the eps floor 0.01. The
  /// §4 good-set selection allocates (1/delta + 1) bits per node and the
  /// planned sparsification stages grow as 1/delta, so a smaller eps runs
  /// out of memory or time instead of solving.
  static constexpr std::uint32_t kMaxInvDelta = 800;

  Solver() = default;
  explicit Solver(SolveOptions options) : options_(std::move(options)) {}

  const SolveOptions& options() const { return options_; }

  /// Validate this solver's options. Rules (one StatusCode each):
  ///   - 0 < eps < 1 and round(8/eps) <= kMaxInvDelta, i.e. eps >= 0.01
  ///                                 (kInvalidEps)
  ///   - space_headroom > 0          (kInvalidSpaceHeadroom)
  ///   - dispatch_slack > 0          (kInvalidDispatchSlack)
  ///   - threads <= kMaxThreads      (kInvalidThreads; 0 = hardware)
  ///   - cluster.machine_space 0 or >= 2  (kInvalidClusterOverrides)
  ///   - faults structurally well formed  (kInvalidFaultPlan)
  ///   - recovery within bounds           (kInvalidRetryBudget)
  ///   - plan recoverable under policy    (kUnrecoverableFault): a crash or
  ///     drop event with checkpointing off, or firing on more attempts than
  ///     max_retries allows, is rejected up front instead of failing the run.
  Status validate() const { return validate(options_); }
  static Status validate(const SolveOptions& options);

  /// Theorem-1 dispatch predicate for this solver's options: true if the §5
  /// low-degree path applies (Delta within dispatch_degree_bound and the
  /// 2-hop structures fit in S). Throws OptionsError on invalid options.
  bool low_degree_regime(const graph::Graph& g) const;

  /// The dispatch threshold itself: the largest max-degree for which the
  /// low-degree path is considered on an n-node graph
  /// (dispatch_slack * n^{eps/8} + dispatch_slack).
  double dispatch_degree_bound(std::uint64_t n) const;

  /// Deterministic maximal independent set (Theorem 1).
  /// Throws OptionsError if validate() fails.
  MisSolution mis(const graph::Graph& g) const;

  /// Deterministic maximal matching (Theorem 1).
  /// Throws OptionsError if validate() fails.
  MatchingSolution maximal_matching(const graph::Graph& g) const;

  /// Storage-seam entry points: solve the graph owned by `storage` and
  /// export its residency stats into the registry's kHost section (so
  /// --metrics-out and benches see storage/bytes_mapped etc.). The answer
  /// and every kModel byte are identical to the plain-graph overloads.
  ///
  /// When the backend was opened with VerifyMode::kParanoid, or certify is
  /// on, the attach runs a pre-solve integrity gate
  /// (Storage::verify_integrity — retries and quarantine engaged): a backend
  /// that still fails surfaces as CertificationError (failed
  /// storage_integrity claim) in checked mode, else as mpc::StorageError —
  /// before the pipeline ever dereferences a corrupt adjacency. The report's
  /// recovery.storage sub-block carries the backend's cumulative recovery
  /// ledger.
  MisSolution mis(const mpc::Storage& storage) const;
  MatchingSolution maximal_matching(const mpc::Storage& storage) const;

  /// Open the backend selected by options().storage: kMemory parses
  /// `input_path` as a text edge list, kMmap maps storage.shard_dir
  /// (ignoring `input_path`). Throws OptionsError on invalid storage
  /// options, ParseError on malformed input.
  std::unique_ptr<mpc::Storage> open_storage(
      const std::string& input_path,
      const graph::EdgeListLimits& limits = {}) const;

  /// The host executor the solve entry points will use (threads resolved:
  /// 0 -> hardware concurrency). Exposed so callers can reuse it for
  /// adjacent work (graph stats, custom objectives).
  exec::Executor make_executor() const;

  /// The cluster this solver would provision for an (n, m)-size input,
  /// set up exactly like a solve's: geometry auto-sized from
  /// eps/space_headroom, overrides applied, the executor, fault plan, trace
  /// session and event bus installed. This is the supported way for benches
  /// and tests to obtain a cluster (hand-building mpc::ClusterConfig is
  /// deprecated). Throws OptionsError on invalid options.
  mpc::Cluster cluster(std::uint64_t n, std::uint64_t m) const;

  /// The raw geometry cluster(n, m) would use (after overrides).
  mpc::ClusterConfig cluster_config(std::uint64_t n, std::uint64_t m) const;

  /// Thin wrapper: to_json(solve_report).dump().
  std::string report_json(const SolveReport& solve_report) const;

  /// The certificate of the most recent solve on this Solver instance
  /// (empty when certify == kOff or before the first solve). Also embedded
  /// in the SolveReport of the answer it certifies. Like the solve entry
  /// points themselves, not synchronized: concurrent solves on one Solver
  /// instance race on this slot.
  const verify::Certificate& certificate() const;

  /// The snapshot of the most recent solve's own metrics registry on this
  /// Solver instance (empty before the first solve): each solve writes into
  /// a fresh obs::RegistryScope, so the values are exactly this solve's,
  /// whatever else runs in the process; gauges are the post-solve sample.
  /// Also embedded in SolveReport::registry. Same synchronization caveat as
  /// certificate().
  const obs::MetricsSnapshot& metrics_snapshot() const;

 private:
  void require_valid() const;

  /// The one Theorem-1 solve behind mis(g) and maximal_matching(g)
  /// (Solution is MisSolution or MatchingSolution): dispatch, pipeline,
  /// report, registry and certificate.
  template <typename Solution>
  Solution solve(const graph::Graph& g) const;

  /// The one storage-seam solve behind the Storage overloads: attach the
  /// backend, run the integrity gate, then solve(storage.graph()).
  template <typename Solution>
  Solution solve(const mpc::Storage& storage) const;

  /// The host wiring of every cluster this solver builds: threads,
  /// overrides, fault plan, trace session and event bus from the options,
  /// plus `profiler` (the solve's own, or null).
  mpc::ClusterSetup cluster_setup(obs::RoundProfiler* profiler) const;

  /// Emit solve_started for `algorithm` over `g` on the attached bus.
  void emit_solve_started(const char* algorithm, const graph::Graph& g) const;

  /// Emit solve_finished and fill the report's events summary.
  void emit_solve_finished(SolveReport* report) const;

  /// Surface the attached storage backend's recovery ledger as
  /// recovery-section events (retry/quarantine/degradation rungs happen at
  /// open/verify time, before any cluster exists, so they are summarized
  /// here rather than streamed).
  void emit_storage_events(const mpc::Storage& storage) const;

  /// Satellite of the unwind contract: flush and close the event bus (and
  /// finish the trace session) so partially written sinks are never
  /// truncated mid-record when CertificationError/FaultError escapes.
  void flush_observers_on_unwind() const;

  /// The pre-solve integrity gate for the storage overloads (see their doc
  /// comment). Stashes the storage_integrity claim for certify_common.
  void storage_gate(const mpc::Storage& storage) const;

  /// The storage_integrity claim certify_common appends: the gate's stashed
  /// result when a backend is attached, else a fresh skipped claim.
  verify::ClaimResult storage_claim() const;

  /// Run the shared claim set (space accounting against the S the solve ran
  /// with + full-mode pipeline claims + replay identity) and append to
  /// `answer_claims`.
  verify::Certificate certify_common(
      const SolveReport& report,
      std::vector<verify::ClaimResult> answer_claims,
      const std::function<bool(std::uint64_t*, std::uint64_t*, std::string*)>&
          replay) const;

  /// Emit the verify/certify span, embed the certificate in the report,
  /// remember it, and throw CertificationError if any claim failed.
  void record_certificate(verify::Certificate certificate,
                          SolveReport* report) const;

  /// Certify `solution` per options().certify: the problem's answer claims,
  /// then certify_common with a fault-free replay of the same solve.
  template <typename Solution>
  void finalize_certificate(const graph::Graph& g, Solution* solution) const;

  /// Export the pipeline's metrics into the solve's registry, sample the
  /// host gauges, and store its snapshot into the report and the
  /// metrics_snapshot() slot. Called after the pipeline and before
  /// certification, so a certify=full replay solve cannot leak its
  /// registry increments into this report.
  void capture_registry(obs::MetricsRegistry& registry,
                        SolveReport* report) const;

  SolveOptions options_;
  /// Storage backend attached for the duration of a storage-overload solve
  /// (mutable output-slot style, like the certificate):
  /// capture_registry exports its host stats and recovery ledger.
  mutable const mpc::Storage* active_storage_ = nullptr;
  /// The attached backend's integrity verdict from the pre-solve gate
  /// (meaningful only while active_storage_ is set).
  mutable verify::ClaimResult storage_integrity_;
  /// The last solve's certificate (see certificate()). Mutable: solves are
  /// logically const — the certificate is an output slot, not solver state.
  mutable verify::Certificate last_certificate_;
  /// The last solve's registry snapshot (see metrics_snapshot()).
  mutable obs::MetricsSnapshot last_snapshot_;
};

}  // namespace dmpc
