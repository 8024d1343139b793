// Round profiler: per-round load-skew timelines plus host-side scope costs.
//
// The metrics layer (mpc/metrics.hpp) keeps aggregate totals — peak load,
// total communication — which is exactly what Theorems 1/7/14 bound, but it
// erases *skew*: how unevenly a round's load is spread across machines, and
// which rounds concentrate it. This module adds two independent profilers:
//
//  * RoundProfiler (model side, golden): the Cluster forwards every
//    check_load() observation and every round charge to an attached
//    profiler. Observations between two charges form one *window*; a commit
//    folds the window into a fixed-capacity ring of per-round records
//    (count/sum/max/mean load, an integer Gini coefficient in ppm, top-k
//    loaded machines, communication delta). Everything is integer-exact and
//    driven solely by the orchestrating thread, so the resulting snapshot is
//    byte-identical across thread counts and admissible fault plans — it
//    exports into the registry kModel section and the report JSON `profile`
//    block (optional, present only under SolveOptions::profile).
//
//  * HostScope (host side, non-golden): RAII scope measuring wall time,
//    thread-CPU time (CLOCK_THREAD_CPUTIME_ID), and allocation counts/bytes
//    (via the replaceable operator new/delete hooks in alloc_hooks.cpp,
//    compiled out under sanitizers/fuzzing where interception conflicts).
//    Deltas land in kHost registry counters and — when the trace session
//    opts in via enable_host_counters() — as Chrome-trace counter events.
//    Golden traces keep host counters off, so byte-identity is preserved.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace dmpc::obs {

class MetricsRegistry;
class TraceSession;

// ---------------------------------------------------------------------------
// Model-side skew timeline
// ---------------------------------------------------------------------------

/// One of the top-k most loaded slots in a record's window. `machine` is the
/// simulated machine index for attributed observations (route/load paths);
/// -1 for central Lemma-4 primitive checks, which model a representative
/// machine rather than a specific index.
struct ProfileTopEntry {
  std::int64_t machine = -1;
  std::uint64_t words = 0;
};

/// One committed window: every load observation between two round charges,
/// folded into fixed summary statistics. All fields are integers.
struct ProfileRecord {
  std::string label;            ///< Label of the charge that closed the window.
  std::uint64_t round_begin = 0;  ///< Logical round when the window opened.
  std::uint64_t round_end = 0;    ///< Logical round after the charge.
  std::uint64_t rounds = 0;       ///< Rounds charged by the closing commit.
  std::uint64_t comm_words = 0;   ///< Communication delta over the window.
  std::uint64_t load_count = 0;   ///< Load observations in the window.
  std::uint64_t load_sum = 0;
  std::uint64_t load_max = 0;
  std::uint64_t mean_load = 0;    ///< floor(load_sum / load_count).
  std::uint64_t gini_ppm = 0;     ///< Gini over retained samples, in ppm.
  std::uint64_t attributed = 0;   ///< Observations with a real machine index.
  std::vector<ProfileTopEntry> top;  ///< Top-k by words desc, machine asc.
};

/// Run-wide totals per charge label: rounds and comm_words equal the label's
/// Metrics::by_label() row.
struct ProfileLabelSummary {
  std::uint64_t records = 0;
  std::uint64_t rounds = 0;
  std::uint64_t comm_words = 0;
  std::uint64_t load_count = 0;
  std::uint64_t load_sum = 0;
  std::uint64_t load_max = 0;
  std::uint64_t gini_max_ppm = 0;
};

/// Immutable copy of a RoundProfiler's state. `ring` holds the *last*
/// `ring_capacity` records (oldest first); `by_label` and the totals cover
/// every committed record, including evicted ones.
struct ProfileSnapshot {
  bool enabled = false;
  std::uint64_t ring_capacity = 0;
  std::uint64_t top_k = 0;
  std::uint64_t sample_cap = 0;
  std::uint64_t records_committed = 0;
  std::uint64_t records_dropped = 0;  ///< Evicted from the ring.
  std::uint64_t samples_dropped = 0;  ///< Observations beyond sample_cap.
  std::uint64_t load_max = 0;
  std::uint64_t gini_max_ppm = 0;
  std::map<std::string, ProfileLabelSummary> by_label;
  std::vector<ProfileRecord> ring;

  /// Add the snapshot's totals to the registry kModel section
  /// (profile/records, profile/rounds, profile/comm_words,
  /// profile/load_observations, profile/load_max, profile/gini_max_ppm and
  /// the profile/record_gini_ppm histogram). No-op when !enabled.
  void export_to(MetricsRegistry& registry) const;
};

/// Gini coefficient of `samples` in parts-per-million, integer-exact:
/// sum_{i<j} |x_i - x_j| * 1e6 / (n * sum x). 0 for empty/zero-sum input.
/// Sorts its argument; exposed for tests.
std::uint64_t gini_ppm(std::vector<std::uint64_t> samples);

/// Collects the skew timeline. Attach to a Cluster via ClusterSetup; the
/// cluster calls observe_load() from check_load() and commit() right after
/// each charge lands in its ledger (Cluster::charge and step), so a window
/// holds exactly the words and loads of the charge that closes it, and
/// windows tile the round axis exactly like fault windows. Not thread-safe
/// by design: both hooks run on the orchestrating thread only.
class RoundProfiler {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 128;
  static constexpr std::size_t kTopK = 4;
  /// Retained-sample cap per window: the Gini is computed over at most this
  /// many observations (count/sum/max/top-k remain exact over all of them).
  static constexpr std::size_t kSampleCap = 1024;

  explicit RoundProfiler(std::size_t ring_capacity = kDefaultRingCapacity);

  /// One load observation; `machine` is the simulated machine index or
  /// mpc::Cluster::kAnyMachine for central primitive checks.
  void observe_load(std::uint64_t words, std::uint64_t machine);

  /// Close the current window: `round_end` is the logical round after the
  /// charge, `rounds` the amount charged, `total_communication` the
  /// cluster's cumulative communication (the commit stores the delta).
  void commit(const std::string& label, std::uint64_t round_end,
              std::uint64_t rounds, std::uint64_t total_communication);

  std::uint64_t records_committed() const { return records_committed_; }

  /// The most recently committed window, or nullptr before the first
  /// commit. Model-deterministic like the rest of the ring; the cluster
  /// reads it to attach per-window skew to round_completed events.
  const ProfileRecord* last_record() const {
    return ring_.empty() ? nullptr : &ring_.back();
  }

  ProfileSnapshot snapshot() const;
  void reset();

 private:
  std::size_t ring_capacity_;
  // Open-window state.
  std::uint64_t window_count_ = 0;
  std::uint64_t window_sum_ = 0;
  std::uint64_t window_max_ = 0;
  std::uint64_t window_attributed_ = 0;
  std::uint64_t last_round_ = 0;
  std::uint64_t last_comm_ = 0;
  std::vector<std::uint64_t> samples_;      // capped at kSampleCap
  std::vector<ProfileTopEntry> top_;        // kept sorted, capped at kTopK
  // Committed state.
  std::deque<ProfileRecord> ring_;
  std::map<std::string, ProfileLabelSummary> by_label_;
  std::uint64_t records_committed_ = 0;
  std::uint64_t samples_dropped_ = 0;
  std::uint64_t load_max_ = 0;
  std::uint64_t gini_max_ppm_ = 0;
};

/// The report JSON `profile` block: integer-only, model-deterministic.
Json to_json(const ProfileSnapshot& profile);

// ---------------------------------------------------------------------------
// Host-side scope profiler
// ---------------------------------------------------------------------------

/// Cumulative allocation tally of the calling thread. All-zero when the
/// operator new/delete hooks are compiled out (sanitizer/fuzzer builds).
struct AllocCounters {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
  std::uint64_t frees = 0;
};

/// Snapshot of this thread's allocation counters.
AllocCounters thread_alloc_counters();

/// CPU time consumed by the calling thread, in nanoseconds.
std::uint64_t thread_cpu_time_ns();

namespace detail {
/// POD so the thread_local is constant-initialized — operator new may run
/// before any dynamic initializer and must never allocate recursively.
struct AllocTally {
  std::uint64_t allocations;
  std::uint64_t bytes;
  std::uint64_t frees;
};
extern thread_local AllocTally g_alloc_tally;
}  // namespace detail

/// RAII host-cost scope. On destruction adds wall/cpu/alloc deltas to the
/// kHost counters host/<name>/{calls,wall_ns,cpu_ns,allocs,alloc_bytes} and,
/// when `session` has host counters enabled, emits a Chrome-trace counter
/// event "hostprof/<name>". Host section only — never part of golden output.
class HostScope {
 public:
  explicit HostScope(std::string name, TraceSession* session = nullptr);
  ~HostScope();
  HostScope(const HostScope&) = delete;
  HostScope& operator=(const HostScope&) = delete;

 private:
  std::string name_;
  TraceSession* session_ = nullptr;
  std::uint64_t wall_begin_ = 0;
  std::uint64_t cpu_begin_ = 0;
  AllocCounters alloc_begin_;
};

}  // namespace dmpc::obs
