// Deterministic fault injection and checkpoint/restart for the simulated
// cluster.
//
// The paper's model assumes fail-free machines, but the MapReduce/Spark
// deployments that motivate MPC recover from worker loss by re-executing the
// failed superstep from the last consistent snapshot. This module adds that
// layer to the simulator without giving up the repo's determinism contract:
//
//  - A FaultPlan is a seed-free schedule of machine crashes, message drops,
//    message duplications, and straggler delays, keyed on the *logical*
//    round index (the fault-free round clock, Metrics::rounds()) and the
//    machine index. Replays are reproducible: no wall clock, no RNG.
//  - RecoveryOptions bound the retry engine: a superstep that loses a
//    machine or a message is rolled back to the last checkpoint and
//    replayed, up to max_retries times, each retry consuming an
//    exponentially growing round budget (recorded in RecoveryStats, never
//    in the core Metrics).
//  - The hard guarantee (docs/FAULTS.md): a solve under any admissible
//    FaultPlan produces byte-identical solutions, report JSON (modulo the
//    "recovery" counter block), and golden traces to the fault-free run.
//    Retry exhaustion surfaces as a typed FaultError, never a hang.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpc/io_faults.hpp"
#include "support/check.hpp"

namespace dmpc::obs {
class MetricsRegistry;
}

namespace dmpc::mpc {

enum class FaultKind : std::uint8_t {
  kCrash,      ///< A machine loses the superstep (compute + sends discarded).
  kDrop,       ///< One message of a sender's outbox is lost in transit.
  kDuplicate,  ///< One message is delivered twice; the router deduplicates.
  kStraggler,  ///< A machine finishes late; the barrier absorbs the delay.
};

const char* fault_kind_name(FaultKind kind);

/// One scheduled fault. `round` is a logical round index; the event fires
/// during the first recoverable superstep (message-passing step or Lemma-4
/// primitive invocation) whose fault window covers that round — windows tile
/// the round axis, so any event with round < total fault-free rounds fires
/// exactly once. An event fires on attempts 0 .. attempts-1 of that
/// superstep, so a crash with attempts=k is recoverable iff
/// k <= RecoveryOptions::max_retries.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  std::uint64_t round = 0;    ///< Logical (fault-free) round index.
  std::uint64_t machine = 0;  ///< Crashed/straggling machine, or the sender.
  std::uint64_t message = 0;  ///< Outbox ordinal for kDrop / kDuplicate.
  std::uint64_t delay = 1;    ///< Straggler delay in rounds (>= 1).
  std::uint32_t attempts = 1; ///< Consecutive attempts the fault fires on.
};

/// A deterministic schedule of faults. Plans are plain data: copyable,
/// comparable by their event list, and round-trippable through a text format
/// (one event per line) for the CLI's --fault-plan flag.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events)
      : events_(std::move(events)) {}

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }
  void add(FaultEvent event) { events_.push_back(event); }

  /// Events scheduled in the logical round window [begin, end) that still
  /// fire on `attempt` (0-based attempt counter of the covering superstep).
  std::vector<const FaultEvent*> active(std::uint64_t begin, std::uint64_t end,
                                        std::uint32_t attempt) const;

  /// Structural admissibility: empty string when every event is well formed,
  /// else a description of the first problem (for StatusCode
  /// kInvalidFaultPlan).
  std::string check() const;

  /// Hard caps on untrusted plan text (ParseErrorCode::kLimitExceeded).
  static constexpr std::uint64_t kMaxEvents = 1ull << 20;
  static constexpr std::uint64_t kMaxLineBytes = 1ull << 16;

  /// Parse the text format. Lines are
  ///   <crash|drop|duplicate|straggler> key=value ...
  /// with keys round, machine, message, delay, attempts; '#' starts a
  /// comment. Throws dmpc::ParseError (typed code + line/column + offending
  /// token) on malformed or oversized input.
  static FaultPlan parse(const std::string& text);

  /// Legacy non-throwing wrapper: on failure returns an empty plan and sets
  /// *error to the ParseError message.
  static FaultPlan parse(const std::string& text, std::string* error);

  /// Inverse of parse (stable one-line-per-event encoding).
  std::string to_string() const;

 private:
  std::vector<FaultEvent> events_;
};

/// Where recovery snapshots are taken.
enum class CheckpointMode : std::uint8_t {
  kOff,    ///< No snapshots: any crash/drop is immediately unrecoverable.
  kRound,  ///< Snapshot at every superstep / primitive invocation boundary.
  kPhase,  ///< Snapshot at pipeline phase marks; replay rolls back further.
};

const char* checkpoint_mode_name(CheckpointMode mode);

/// Bounds on the retry engine. Validated by dmpc::Solver (StatusCode
/// kInvalidRetryBudget).
struct RecoveryOptions {
  /// Hard cap on max_retries — a guard against garbage input.
  static constexpr std::uint32_t kMaxRetries = 64;

  /// Replay attempts per superstep before FaultError is thrown.
  std::uint32_t max_retries = 3;
  /// Base of the exponential per-retry round budget: retry k of a superstep
  /// spanning c rounds consumes backoff_rounds * c * 2^{k-1} rounds of the
  /// recovery budget (RecoveryStats::replayed_rounds). Must be >= 1.
  std::uint64_t backoff_rounds = 1;
  CheckpointMode checkpoint = CheckpointMode::kRound;
  /// Emit recovery/retry and recovery/checkpoint instant events into the
  /// attached trace session. Off by default so golden traces stay
  /// byte-identical to the fault-free run.
  bool trace_recovery = false;
};

/// Side ledger of everything the fault/recovery layer did. Deliberately
/// separate from Metrics: the core cost model (rounds, peak load,
/// communication) must stay byte-identical to the fault-free run, so all
/// recovery overhead is accounted here and serialized under the report's
/// "recovery" key.
struct RecoveryStats {
  std::uint64_t faults_injected = 0;        ///< Events that actually fired.
  std::uint64_t crashes = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t duplicates_suppressed = 0;  ///< Redeliveries deduplicated.
  std::uint64_t straggler_rounds = 0;       ///< Barrier delay absorbed.
  std::uint64_t retries = 0;                ///< Supersteps replayed.
  std::uint64_t replayed_rounds = 0;        ///< Backoff round budget consumed.
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_words = 0;       ///< Words snapshotted.
  std::map<std::string, std::uint64_t> retries_by_label;
  /// Host storage-layer recovery (mpc/io_faults.hpp): retries, checksum
  /// failures, quarantines, and backend degradation, serialized as the
  /// report's recovery.storage sub-block (schema 6).
  IoRecoveryStats storage;

  /// True when no fault fired and no recovery work happened.
  bool clean() const {
    return faults_injected == 0 && retries == 0 && checkpoints == 0 &&
           straggler_rounds == 0 && storage.clean();
  }

  void reset() { *this = RecoveryStats{}; }
  void merge(const RecoveryStats& other);

  /// Export this ledger into the *recovery* section of `registry` (counters
  /// "recovery/<field>" plus the "recovery/retries/<label>" family). Like
  /// Metrics::export_to this adds into the solve's own registry. The
  /// recovery section is excluded from report JSON — reports stay
  /// byte-identical across fault plans modulo their typed "recovery" block.
  void export_to(obs::MetricsRegistry& registry) const;
};

/// Thrown when a superstep cannot be recovered: the retry budget is
/// exhausted, or a crash/drop fires with checkpointing off. Maps to
/// StatusCode::kUnrecoverableFault at the API layer (CLI exit 2). Derives
/// from CheckFailure so existing catch sites keep working.
class FaultError : public CheckFailure {
 public:
  FaultError(std::string label, std::uint64_t round, std::uint32_t attempts,
             const std::string& detail)
      : CheckFailure("unrecoverable fault in '" + label + "' at round " +
                     std::to_string(round) + " after " +
                     std::to_string(attempts) + " attempt(s): " + detail),
        label_(std::move(label)),
        round_(round),
        attempts_(attempts) {}

  const std::string& label() const { return label_; }
  std::uint64_t round() const { return round_; }
  std::uint32_t attempts() const { return attempts_; }

 private:
  std::string label_;
  std::uint64_t round_;
  std::uint32_t attempts_;
};

}  // namespace dmpc::mpc
