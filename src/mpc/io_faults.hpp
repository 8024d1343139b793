// Deterministic host-I/O fault injection for the storage layer.
//
// The cluster-level FaultPlan (mpc/faults.hpp) schedules *model* faults —
// machine crashes, message drops — on the logical round clock. IoFaultPlan
// is its host-side sibling: a seed-free schedule of filesystem misbehavior
// (short reads, EIO, checksum corruption, mmap refusals, slow-I/O
// stragglers) keyed on (shard index, access ordinal) instead of (round,
// machine). The storage layer assigns access ordinals deterministically
// (0 = open/map, 1 = checksum verify, 2 = quarantine re-read), and an event
// fires on attempts 0 .. attempts-1 of its access, so a transient fault
// with attempts=k is survivable iff k <= RecoveryOptions::max_retries.
//
// The hard guarantee mirrors docs/FAULTS.md: a solve under any admissible
// IoFaultPlan within the retry budget produces byte-identical solutions,
// report JSON (modulo the "recovery" block), and golden traces to the
// fault-free run — injected I/O failures are absorbed by the recovery
// ladder in storage.cpp (retry -> quarantine -> degrade) and ledgered in
// IoRecoveryStats, never in the model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpc/storage_error.hpp"

namespace dmpc::obs {
class MetricsRegistry;
}

namespace dmpc::mpc {

enum class IoFaultKind : std::uint8_t {
  kShortRead,  ///< The access sees fewer bytes than the manifest promises.
  kEio,        ///< The access fails with a transient I/O error.
  kCorrupt,    ///< The access observes checksum-corrupted bytes.
  kMapFail,    ///< mmap refuses the mapping for this access.
  kSlow,       ///< The access completes late; backoff units are recorded.
};

const char* io_fault_kind_name(IoFaultKind kind);

/// Access ordinals the storage layer charges against a shard. Every retry of
/// an access reuses its ordinal with an incremented attempt counter.
inline constexpr std::uint64_t kAccessOpen = 0;
inline constexpr std::uint64_t kAccessVerify = 1;
inline constexpr std::uint64_t kAccessQuarantine = 2;

/// One scheduled I/O fault. `shard` is the shard index (kManifestShard for
/// the manifest read); `access` the deterministic access ordinal above.
struct IoFaultEvent {
  IoFaultKind kind = IoFaultKind::kEio;
  std::uint64_t shard = 0;
  std::uint64_t access = kAccessOpen;
  std::uint64_t delay = 1;     ///< Slow-I/O delay in backoff units (>= 1).
  std::uint32_t attempts = 1;  ///< Consecutive attempts the fault fires on.
};

/// A deterministic schedule of I/O faults. Plans are plain data: copyable,
/// comparable by their event list, and round-trippable through a text
/// format (one event per line) for the CLI's --io-fault-plan flag. A plan
/// attached to the in-memory backend is a valid no-op: there is no host
/// I/O to perturb.
class IoFaultPlan {
 public:
  IoFaultPlan() = default;
  explicit IoFaultPlan(std::vector<IoFaultEvent> events)
      : events_(std::move(events)) {}

  bool empty() const { return events_.empty(); }
  const std::vector<IoFaultEvent>& events() const { return events_; }
  void add(IoFaultEvent event) { events_.push_back(event); }

  /// Events scheduled on (shard, access) that still fire on `attempt`
  /// (0-based attempt counter of that access).
  std::vector<const IoFaultEvent*> active(std::uint64_t shard,
                                          std::uint64_t access,
                                          std::uint32_t attempt) const;

  /// Structural admissibility: empty string when every event is well
  /// formed, else a description of the first problem (for StatusCode
  /// kInvalidIoFaultPlan).
  std::string check() const;

  /// Hard caps on untrusted plan text (ParseErrorCode::kLimitExceeded).
  static constexpr std::uint64_t kMaxEvents = 1ull << 20;
  static constexpr std::uint64_t kMaxLineBytes = 1ull << 16;

  /// Parse the text format. Lines are
  ///   <short_read|eio|corrupt|map_fail|slow> key=value ...
  /// with keys shard (a u64 or the word "manifest"), access, delay,
  /// attempts; '#' starts a comment. Throws dmpc::ParseError (typed code +
  /// line/column + offending token) on malformed or oversized input.
  static IoFaultPlan parse(const std::string& text);

  /// Legacy non-throwing wrapper: on failure returns an empty plan and sets
  /// *error to the ParseError message.
  static IoFaultPlan parse(const std::string& text, std::string* error);

  /// Inverse of parse (stable one-line-per-event encoding).
  std::string to_string() const;

 private:
  std::vector<IoFaultEvent> events_;
};

/// Side ledger of everything the storage recovery ladder did, embedded in
/// RecoveryStats as its `storage` sub-block (report schema 6) and exported
/// into the kRecovery registry section as storage/<field> counters. Like
/// the cluster ledger, it is excluded from byte-identity comparisons: the
/// model never sees host I/O.
struct IoRecoveryStats {
  std::uint64_t io_faults_injected = 0;  ///< Injected events that fired.
  std::uint64_t retries = 0;             ///< Accesses retried after a fault.
  std::uint64_t backoff_units = 0;       ///< Exponential backoff consumed.
  std::uint64_t checksum_failures = 0;   ///< CRC64 mismatches observed.
  std::uint64_t quarantined_shards = 0;  ///< Shards served from heap copies.
  std::uint64_t degraded = 0;            ///< Whole-backend mmap->memory falls.
  std::uint64_t shards_verified = 0;     ///< Shard checksums that matched.

  /// True when no I/O fault fired and no recovery work happened
  /// (successful verification alone keeps a run clean).
  bool clean() const {
    return io_faults_injected == 0 && retries == 0 && checksum_failures == 0 &&
           quarantined_shards == 0 && degraded == 0;
  }

  void reset() { *this = IoRecoveryStats{}; }
  void merge(const IoRecoveryStats& other);

  /// Export into the kRecovery registry section ("storage/<field>"
  /// counters). Adds, like every export.
  void export_to(obs::MetricsRegistry& registry) const;
};

}  // namespace dmpc::mpc
