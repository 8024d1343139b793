// The MPC cluster model (paper §1, "The MPC model").
//
// M machines with S words of local space run in synchronous rounds. The
// simulator has two levels:
//
//  1. A *message-passing* level (`step`): user code runs per machine against
//     its local words and posts messages; the router enforces that every
//     machine's sent and received volume fits in S. This level is used by
//     the CONGESTED CLIQUE adapter and by tests that pin down the model
//     semantics.
//
//  2. A *primitive* level (mpc/primitives.hpp): sorting, prefix sums, and
//     segmented aggregation over distributed arrays, the Lemma-4 toolbox the
//     paper builds everything from. Primitives execute centrally (we are one
//     process) but lay data out in machine-sized blocks, verify every block
//     fits in S, and charge the honest round cost: a fan-in-S aggregation
//     tree has depth ceil(log N / log S), which is the O(1/eps) "constant"
//     of the fully scalable model — and exactly the source of the
//     O(log log n) additive term in Theorem 1, so we model it faithfully
//     rather than hard-coding 1.
//
// A Cluster is configured with (n, eps) like the paper: S = ceil(n^eps),
// M = ceil(total_input / S) * c. Space checks throw CheckFailure.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "mpc/faults.hpp"
#include "mpc/metrics.hpp"
#include "support/check.hpp"

namespace dmpc::obs {
class EventBus;
enum class EventType : std::uint8_t;
class RoundProfiler;
class Span;
class TraceSession;
}

namespace dmpc::mpc {

using Word = std::uint64_t;

struct ClusterConfig {
  std::uint64_t machine_space = 0;  ///< S in words; must be >= 2.
  std::uint64_t num_machines = 0;   ///< M; 0 = derive from first use.
  bool enforce_space = true;        ///< Disable only for ablation (E11).

  /// Convenience: S = max(floor(n^eps), floor_min), M = ceil(total/S)+slack.
  static ClusterConfig for_input(std::uint64_t n, double eps,
                                 std::uint64_t total_words,
                                 std::uint64_t min_space = 16);
};

/// Total-space constant of the pipelines' provisioning formulas: M is sized
/// so the cluster holds kTotalSpaceFactor * (m + n + 2) words.
inline constexpr double kTotalSpaceFactor = 8.0;

/// User-facing knobs over the auto-derived provisioning. `dmpc::Solver` owns
/// the derivation (S and M from n, eps, space_headroom); overrides let
/// benches/tests pin an exact geometry without hand-building a ClusterConfig.
/// A zero field means "keep the derived value".
struct ClusterOverrides {
  std::uint64_t machine_space = 0;  ///< Words per machine; 0 = auto.
  std::uint64_t num_machines = 0;   ///< Machine count; 0 = auto.
  bool enforce_space = true;        ///< Disable only for ablation (E11).

  bool is_default() const {
    return machine_space == 0 && num_machines == 0 && enforce_space;
  }
};

/// Apply non-zero override fields on top of a derived base config. A false
/// enforce_space disables enforcement; the default leaves the base's value,
/// so applying default overrides is the identity.
ClusterConfig apply_overrides(ClusterConfig base,
                              const ClusterOverrides& overrides);

/// Everything the host wires onto a Cluster besides its geometry, applied
/// once by the constructor (the only way to configure a cluster). The
/// observer pointers are non-owning; null leaves that observer off.
///
/// Determinism contract: every observer hook fires on the orchestrating
/// thread, after the corresponding Metrics charge, and faulted attempts
/// never charge Metrics. So traces, profiles and the model section of the
/// event stream are byte-identical across `threads`, admissible fault plans
/// and storage backends (the kModel contract).
struct ClusterSetup {
  /// Host threads for per-machine local computation (0 = hardware
  /// concurrency, 1 = serial). The model is unchanged: the simulated
  /// machines are independent within a round, and every loop dispatched
  /// through the executor uses the deterministic helpers in
  /// exec/parallel.hpp, so results are identical for every value.
  std::uint32_t threads = 1;
  /// Provisioning overrides on the base geometry.
  ClusterOverrides overrides;
  /// Deterministic fault schedule plus the recovery policy that tolerates
  /// it. An empty plan disables every fault/recovery code path: no
  /// checkpoints are taken and the run is bit-for-bit the fault-free
  /// execution with an all-zero RecoveryStats ledger.
  FaultPlan faults;
  RecoveryOptions recovery;
  /// Trace session, bound to this cluster's Metrics so spans report
  /// round/communication deltas.
  obs::TraceSession* trace = nullptr;
  /// Round profiler: check_load() forwards every observation and each round
  /// charge commits a window, so it sees the skew timeline the aggregate
  /// Metrics erases.
  obs::RoundProfiler* profiler = nullptr;
  /// Progress-event bus: every round charge emits a model-section
  /// round_completed event (with per-window load max / Gini when a profiler
  /// is also attached); phase marks emit phase_started/phase_finished
  /// pairs; the recovery engine emits checkpoint/retry/recovered events
  /// into the recovery section.
  obs::EventBus* events = nullptr;
};

/// A message in the low-level interface.
struct Message {
  std::uint64_t to = 0;
  std::vector<Word> payload;
};

/// Per-machine view during a low-level step.
class MachineContext {
 public:
  MachineContext(std::uint64_t id, std::vector<Word>* local,
                 std::vector<Message>* outbox)
      : id_(id), local_(local), outbox_(outbox) {}

  std::uint64_t id() const { return id_; }
  std::vector<Word>& local() { return *local_; }
  void send(std::uint64_t to, std::vector<Word> payload) {
    outbox_->push_back({to, std::move(payload)});
  }

 private:
  std::uint64_t id_;
  std::vector<Word>* local_;
  std::vector<Message>* outbox_;
};

class Cluster {
 public:
  /// `base` with `setup.overrides` applied; throws CheckFailure on a space
  /// below 2 or an inadmissible fault plan / recovery policy.
  explicit Cluster(ClusterConfig base, const ClusterSetup& setup = {});
  /// Closes a still-open phase (emits its phase_finished) on teardown.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint64_t space() const { return config_.machine_space; }
  std::uint64_t machines() const { return config_.num_machines; }
  bool enforce_space() const { return config_.enforce_space; }

  /// The model ledger; only charge(), step() and check_load() write it.
  const Metrics& metrics() const { return metrics_; }

  obs::TraceSession* trace() const { return trace_; }
  obs::RoundProfiler* profiler() const { return profiler_; }
  obs::EventBus* events() const { return events_; }
  const exec::Executor& executor() const { return executor_; }

  // ---- Fault injection & recovery ----

  const FaultPlan& fault_plan() const { return fault_plan_; }
  const RecoveryOptions& recovery_options() const { return recovery_; }

  RecoveryStats& recovery_stats() { return recovery_stats_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// The logical round clock faults are keyed on: the number of rounds the
  /// fault-free run has charged so far (recovery overhead is accounted in
  /// RecoveryStats, never here, so this clock is identical with and without
  /// faults).
  std::uint64_t logical_round() const { return metrics_.rounds(); }

  /// Declare a pipeline phase boundary; returns the phase's trace span. Under
  /// CheckpointMode::kPhase this is where snapshots are charged (never while
  /// the fault plan is empty); a replay rolls back to the latest mark.
  /// `state_words` is the distributed state a phase snapshot would persist.
  obs::Span mark_phase(const std::string& label, std::uint64_t state_words = 0);

  /// Charge one centrally-simulated superstep (a Lemma-4 primitive or a
  /// pipeline step): the only way model cost enters the ledger besides
  /// step(). Runs `body` under the fault + recovery engine, adds `rounds`
  /// rounds and `words` words of communication to `label`'s ledger row, then
  /// closes the profiler window and emits round_completed, so both see this
  /// step's words and every load checked since the previous charge.
  ///
  /// The fault window ends at logical_round() + max(rounds, 1) and starts at
  /// the end of the previous charge's window, so windows tile the whole
  /// round axis. `state_words` sizes the checkpoint taken before the attempt
  /// under CheckpointMode::kRound. `body` (empty: a pure accounting step)
  /// must be deterministic and idempotent under re-execution (all repo
  /// primitives are: they overwrite their outputs). Faults scheduled in the
  /// window abort the attempt, charge retry backoff to RecoveryStats, and
  /// re-run `body`; exhaustion throws FaultError. Faulted attempts never
  /// touch the ledger, so it is identical with and without faults.
  void charge(const std::string& label, std::uint64_t rounds,
              std::uint64_t words, std::uint64_t state_words = 0,
              const std::function<void()>& body = {});

  /// Depth of a fan-in-S aggregation tree over `items` leaves; >= 1.
  /// This is the round cost of prefix sums / broadcast / reduction over a
  /// distributed array of `items` records (Lemma 4 with S = n^eps gives a
  /// constant depth of ceil(1/eps)).
  std::uint64_t tree_depth(std::uint64_t items) const;

  /// Sentinel for check_load's machine argument when the load is aggregate
  /// (not attributable to one machine).
  static constexpr std::uint64_t kAnyMachine = ~0ull;

  /// Assert a hypothetical machine load fits in S (counts toward peak load).
  /// A non-empty `label` attributes the load to that label's peak-load
  /// metric (`what` stays free-form for the failure message). The failure
  /// message always carries the machine index, the measured load, and the
  /// limit S in a stable `[machine=... measured=... limit=...]` suffix.
  void check_load(std::uint64_t words, const std::string& what,
                  const std::string& label = "",
                  std::uint64_t machine = kAnyMachine);

  // ---- Low-level message-passing interface ----

  /// Number of machines with materialized local storage.
  std::uint64_t low_level_machines() const { return locals_.size(); }

  /// (Re)initialize local storage: machine i receives inputs[i].
  void load(std::vector<std::vector<Word>> inputs);

  /// Access machine-local words (test/debug).
  const std::vector<Word>& local(std::uint64_t machine) const;

  /// Run one synchronous round: `compute` runs on every machine, messages
  /// are routed, and capacity constraints (send volume <= S, receive volume
  /// <= S, local words <= S) are enforced. Charges exactly 1 round.
  /// Under a parallel executor, `compute` may run concurrently for distinct
  /// machines and must touch only its MachineContext (machine-local state).
  void step(const std::function<void(MachineContext&)>& compute,
            const std::string& label = "step");

 private:
  /// Route messages, enforce capacities, deliver, and charge 1 round — the
  /// commit half of a (successful) step attempt.
  void route_and_deliver(std::vector<std::vector<Message>>& outboxes,
                         const std::string& label);

  /// Run `body` under the fault + recovery engine (see charge()).
  void recover(const std::string& label, std::uint64_t rounds,
               std::uint64_t state_words, const std::function<void()>& body);

  /// Add `rounds` and `words` to `label`'s ledger row, then close the
  /// profiler window and emit round_completed: the commit both charge() and
  /// route_and_deliver() end with.
  void commit(const std::string& label, std::uint64_t rounds,
              std::uint64_t words);

  /// Account one retry of `label` covering `cost` rounds at logical round
  /// `round` after 0-based `attempt` failed. Throws FaultError when
  /// checkpointing is off or the retry budget is exhausted.
  void register_retry(const std::string& label, std::uint64_t round,
                      std::uint64_t cost, std::uint32_t attempt);

  /// Account one checkpoint of `words` words (optionally traced).
  void note_checkpoint(const std::string& label, std::uint64_t words);

  /// Emit a round_completed event for the charge just committed (`rounds`
  /// rounds under `label`), carrying the profiler's last window skew when
  /// one is attached. No-op without an active bus.
  void emit_round_completed(const std::string& label, std::uint64_t rounds);

  /// Emit phase_finished for the currently open phase, if any.
  void close_open_phase();

  /// Emit a recovery-section event with the standard round/comm fields.
  void emit_recovery_event(obs::EventType type, const std::string& label,
                           std::uint64_t round, std::int64_t value,
                           const std::string& detail);

  ClusterConfig config_;
  Metrics metrics_;
  obs::TraceSession* trace_ = nullptr;
  obs::RoundProfiler* profiler_ = nullptr;
  obs::EventBus* events_ = nullptr;
  std::string open_phase_;  ///< Label of the phase awaiting phase_finished.
  bool phase_open_ = false;
  exec::Executor executor_;
  std::vector<std::vector<Word>> locals_;
  FaultPlan fault_plan_;
  RecoveryOptions recovery_;
  RecoveryStats recovery_stats_;
  std::uint64_t phase_round_ = 0;  ///< Logical round of the last phase mark.
  /// End of the last fault window; the next one starts here, so successive
  /// windows tile [0, rounds).
  std::uint64_t fault_covered_round_ = 0;
};

}  // namespace dmpc::mpc
