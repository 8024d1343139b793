// Typed, versioned progress-event stream for live telemetry.
//
// The trace layer (trace.hpp) records *spans* — nested regions with host
// timestamps — and the metrics registry records *totals*. This layer sits in
// between: a flat, forward-only stream of coarse progress events
// (solve/phase/round/recovery/certificate) that a client can tail while a
// solve is running. It is the substrate the ROADMAP's solver-as-a-service
// item streams over.
//
// Determinism contract (mirrors the trace and metrics contracts):
//  * Every event belongs to a section, kModel or kRecovery.
//      - kModel events are deterministic functions of (graph, options minus
//        threads): byte-identical across thread counts, fault plans, and
//        storage backends. They carry their own dense `seq` numbering.
//      - kRecovery events surface fault/io-fault/storage rungs: deterministic
//        for a fixed plan but plan-dependent. They use a *separate* dense
//        `seq` so interleaved recovery traffic never perturbs the model
//        numbering.
//  * Host-side timestamps (wall clock, unix time) are quarantined in the
//    `host` sub-object of the serialized form and in the host_* fields here;
//    stripping them yields the deterministic projection
//    (see model_projection()).
//  * The stream is versioned: kEventStreamVersion stamps every serialized
//    record as "v". Consumers must ignore unknown fields within a version.
//
// The bus is intentionally not thread-safe: events are emitted from the
// single orchestration thread (Cluster rounds and Solver lifecycle run on
// it); executor workers never emit. This keeps emission free of locks and
// the ordering trivially deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dmpc::obs {

/// Bumped when the serialized record shape changes incompatibly.
inline constexpr std::uint32_t kEventStreamVersion = 1;

enum class EventType : std::uint8_t {
  kSolveStarted = 0,
  kSolveFinished,
  kPhaseStarted,
  kPhaseFinished,
  kRoundCompleted,
  kCheckpointTaken,
  kRecoveryAttempt,
  kRecovered,
  kStorageDegraded,
  kCertificateClaim,
};

/// Stable wire name, e.g. "round_completed".
const char* event_type_name(EventType type);

/// Which determinism class an event belongs to. See file comment.
enum class EventSection : std::uint8_t { kModel = 0, kRecovery = 1 };

/// Stable wire name: "model" or "recovery".
const char* event_section_name(EventSection section);

/// The section an event type always belongs to (fixed per type so the model
/// projection is a pure filter, never a judgement call at the emit site).
EventSection event_section(EventType type);

/// One progress event. Integer-exact like TraceArg/MetricValue; unused
/// fields stay zero/empty but are always serialized so every record of a
/// given version has the same shape.
struct ProgressEvent {
  EventType type = EventType::kSolveStarted;
  EventSection section = EventSection::kModel;  // derived; bus overwrites
  std::uint64_t seq = 0;      // dense per-section, assigned by the bus
  std::string label;          // phase/round label, claim name, algorithm
  std::uint64_t round = 0;    // logical round counter after the event
  std::uint64_t rounds = 0;   // rounds charged by this event
  std::uint64_t comm_words = 0;   // cumulative communication words
  std::uint64_t load_max = 0;     // profiler window max load (0 w/o profiler)
  std::uint64_t gini_ppm = 0;     // profiler window Gini (ppm, 0 w/o profiler)
  std::int64_t value = 0;     // type-specific scalar (n, pass/fail, attempt)
  std::string detail;         // type-specific short string (verdict, backend)
  // Host-side (non-deterministic) fields; serialized under "host".
  std::uint64_t host_wall_ns = 0;  // obs::wall_time_ns() at emit
  std::int64_t host_unix_ms = 0;   // unix epoch milliseconds at emit
};

/// Bitmask over event *categories* (one bit per CLI filter keyword, covering
/// one or two event types each). Default-constructed filter passes everything.
class EventFilter {
 public:
  static constexpr std::uint32_t kSolve = 1u << 0;        // solve_*
  static constexpr std::uint32_t kPhase = 1u << 1;        // phase_*
  static constexpr std::uint32_t kRound = 1u << 2;        // round_completed
  static constexpr std::uint32_t kCheckpoint = 1u << 3;   // checkpoint_taken
  static constexpr std::uint32_t kRecovery = 1u << 4;     // recovery_*
  static constexpr std::uint32_t kStorage = 1u << 5;      // storage_degraded
  static constexpr std::uint32_t kCertificate = 1u << 6;  // certificate_claim
  static constexpr std::uint32_t kAll =
      kSolve | kPhase | kRound | kCheckpoint | kRecovery | kStorage |
      kCertificate;

  EventFilter() = default;
  explicit EventFilter(std::uint32_t mask) : mask_(mask & kAll) {}

  bool passes(EventType type) const;
  std::uint32_t mask() const { return mask_; }
  bool passes_all() const { return mask_ == kAll; }

 private:
  std::uint32_t mask_ = kAll;
};

/// Parse a comma-separated category list ("round,recovery,certificate").
/// Accepted keywords: solve, phase, round, checkpoint, recovery, storage,
/// certificate, all. Throws OptionsError(kInvalidEventFilter) on an empty
/// list, empty element, duplicate, or unknown keyword.
EventFilter parse_event_filter(const std::string& text);

/// Canonical printed form: category keywords in fixed declaration order,
/// comma-separated ("all" when everything passes). parse(to_string(f))
/// reproduces f for every filter — the fuzz driver pins this round trip.
std::string event_filter_to_string(const EventFilter& filter);

/// Consumer interface. on_event observes each event passing the bus filter,
/// in emission order; finish flushes (called exactly once by the bus).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const ProgressEvent& event) = 0;
  virtual void finish() {}
};

/// Bounded fan-out bus. Subscribers are notified in registration order;
/// subscribe() refuses (returns false) past kMaxSubscribers so the emit path
/// never allocates. The bus assigns per-section seq numbers *before*
/// filtering, so the numbering — and hence the deterministic projection —
/// is independent of the active filter.
class EventBus {
 public:
  static constexpr std::size_t kMaxSubscribers = 8;

  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// False when sink is null or the subscriber table is full.
  bool subscribe(EventSink* sink);
  std::size_t subscriber_count() const { return sinks_.size(); }

  void set_filter(EventFilter filter) { filter_ = filter; }
  const EventFilter& filter() const { return filter_; }

  /// Stamp section/seq/host fields and fan out to subscribers (unless the
  /// filter drops the event, which still consumes a seq number). No-op after
  /// finish().
  void emit(ProgressEvent event);

  /// Flush every sink in registration order. Idempotent; emit() after
  /// finish() is ignored, so it is safe to call on unwind paths and again
  /// at normal completion.
  void finish();
  bool finished() const { return finished_; }

  std::uint64_t model_events() const { return model_seq_; }
  std::uint64_t recovery_events() const { return recovery_seq_; }
  /// Events dropped by the filter (they still consumed seq numbers).
  std::uint64_t filtered_events() const { return filtered_; }

 private:
  std::vector<EventSink*> sinks_;
  EventFilter filter_;
  std::uint64_t model_seq_ = 0;
  std::uint64_t recovery_seq_ = 0;
  std::uint64_t filtered_ = 0;
  bool finished_ = false;
};

/// Serialize one event as a single JSON line with a fixed field order:
/// {"v","section","seq","type","label","round","rounds","comm_words",
///  "load_max","gini_ppm","value","detail"} (+ trailing "host" sub-object
/// when include_host). Shared by JsonlEventSink and model_projection().
std::string event_to_jsonl(const ProgressEvent& event, bool include_host);

/// Streams one JSON object per event. With include_host = false the output
/// is the deterministic projection (golden across threads/plans/backends
/// for the model section).
class JsonlEventSink final : public EventSink {
 public:
  explicit JsonlEventSink(std::ostream* out, bool include_host = true)
      : out_(out), include_host_(include_host) {}

  void on_event(const ProgressEvent& event) override;
  void finish() override;

 private:
  std::ostream* out_;
  bool include_host_;
};

/// Throttled single-line human progress for --progress. Round events are
/// rate-limited by host wall clock (min_interval_ms); lifecycle events
/// (solve_*, recovery_*, storage_degraded, failed certificate claims)
/// always print. Host-timing-dependent by design — never golden.
class ProgressLineSink final : public EventSink {
 public:
  explicit ProgressLineSink(std::ostream* out,
                            std::uint64_t min_interval_ms = 250)
      : out_(out), min_interval_ns_(min_interval_ms * 1000000ull) {}

  void on_event(const ProgressEvent& event) override;
  void finish() override;

 private:
  std::ostream* out_;
  std::uint64_t min_interval_ns_;
  std::uint64_t last_round_print_ns_ = 0;
  bool printed_any_ = false;
};

/// Buffers every observed event; tests assert on the vector.
class CollectorEventSink final : public EventSink {
 public:
  void on_event(const ProgressEvent& event) override {
    events_.push_back(event);
  }
  void finish() override { finished_ = true; }

  const std::vector<ProgressEvent>& events() const { return events_; }
  bool finished() const { return finished_; }

 private:
  std::vector<ProgressEvent> events_;
  bool finished_ = false;
};

/// The deterministic projection: model-section events only, host fields
/// stripped, one JSONL record per event. Byte-identical across thread
/// counts, fault plans, and storage backends for a fixed (graph, options).
std::string model_projection(const std::vector<ProgressEvent>& events);

/// Summary block embedded in SolveReport as the optional `events_summary`
/// block. enabled stays false — and the report carries no such key — unless
/// a bus was attached to the solve.
struct EventsSummary {
  bool enabled = false;
  std::uint32_t stream_version = kEventStreamVersion;
  std::uint64_t model_events = 0;
  std::uint64_t recovery_events = 0;
  std::uint64_t filtered_events = 0;
};

/// True when `bus` is attached and still accepting events.
inline bool events_enabled(const EventBus* bus) {
  return bus != nullptr && !bus->finished();
}

}  // namespace dmpc::obs
