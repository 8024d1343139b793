// Round-structured tracing for the MPC simulator.
//
// Every bound we reproduce (Theorems 1/7/14, Corollary 2) is a statement
// about rounds, peak per-machine space, and total communication — but the
// totals alone don't say *where* a pipeline spends them. This module adds a
// hierarchical span layer (pipeline -> iteration -> phase -> primitive) over
// the cost model: a TraceSession receives begin/end/instant/counter events,
// each span snapshots the cluster's Metrics on entry and reports the
// round/communication delta it covered on exit, and sinks serialize the
// event stream (JSONL for machine-readable series, Chrome trace-event JSON
// for Perfetto). The per-iteration progress invariants (Lemmas 12/13/19)
// become instant events with structured args instead of free-form log lines.
//
// Design constraints:
//  - Zero cost when disabled: a null session (or a session with a null
//    sink) short-circuits before any string formatting or clock read. Call
//    sites that must *compose* event arguments guard with obs::enabled().
//  - Deterministic event ordering: events carry a logical sequence number
//    and span ids assigned in creation order, so two runs of the same graph
//    with the same options produce identical event streams (wall-clock
//    timestamps are carried separately and can be suppressed by sinks for
//    golden-trace diffs).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace dmpc::mpc {
class Metrics;
}

namespace dmpc::obs {

/// Event argument value: integers stay integers in the serialized output
/// (counts of rounds/edges must not round-trip through double).
using ArgValue = std::variant<std::int64_t, double, std::string>;

struct TraceArg {
  std::string key;
  ArgValue value;
};

/// Convenience constructors so call sites read as {"edges", arg(m)}.
inline TraceArg arg(std::string key, std::uint64_t v) {
  return {std::move(key), static_cast<std::int64_t>(v)};
}
inline TraceArg arg(std::string key, std::int64_t v) {
  return {std::move(key), v};
}
inline TraceArg arg(std::string key, double v) { return {std::move(key), v}; }
inline TraceArg arg(std::string key, std::string v) {
  return {std::move(key), ArgValue(std::move(v))};
}

enum class EventKind { kSpanBegin, kSpanEnd, kInstant, kCounter };

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  std::string name;
  std::uint64_t seq = 0;     ///< Logical clock; strictly increasing.
  std::uint64_t span = 0;    ///< Span id (begin/end) or enclosing span id.
  std::uint64_t parent = 0;  ///< Parent span id; 0 = top level.
  std::uint32_t depth = 0;   ///< Nesting depth at emission (root span = 0).
  std::uint64_t wall_ns = 0; ///< Wall time since session start (steady clock).
  std::vector<TraceArg> args;
};

/// Destination for trace events. Sinks receive events in emission order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
  /// Called once when the session is finished; sinks that buffer (the
  /// Chrome exporter) write their output here.
  virtual void finish() {}
};

/// The active trace of one run. Holds the span stack and the logical clock;
/// optionally attached to a Metrics object so spans can report the
/// round/communication deltas they cover.
class TraceSession {
 public:
  /// A null sink produces an inactive session: every emit path is a no-op.
  explicit TraceSession(TraceSink* sink);

  bool active() const { return sink_ != nullptr; }

  /// Attach the metrics source spans snapshot. The Cluster constructor does
  /// this for its ClusterSetup::trace; pass nullptr to detach.
  void attach_metrics(const mpc::Metrics* metrics) { metrics_ = metrics; }
  const mpc::Metrics* metrics() const { return metrics_; }

  /// Point event inside the current span (e.g. a per-iteration progress
  /// record with structured args).
  void instant(const std::string& name, std::vector<TraceArg> args = {});

  /// Counter sample (rendered as a counter track by the Chrome exporter).
  void counter(const std::string& name, std::vector<TraceArg> args);

  /// Opt into host-side profiler counter events (HostScope). Off by
  /// default: host counters are wall-clock/allocator noise and would break
  /// the byte-identity of golden traces.
  void enable_host_counters(bool on) { host_counters_ = on; }
  bool host_counters_enabled() const { return active() && host_counters_; }

  /// Flush the sink. Call once after the traced run completes.
  void finish();

  std::uint64_t events_emitted() const { return next_seq_; }
  std::uint32_t open_spans() const {
    return static_cast<std::uint32_t>(stack_.size());
  }

 private:
  friend class Span;

  std::uint64_t begin_span(const std::string& name);
  void end_span(std::uint64_t id, const std::string& name,
                std::vector<TraceArg> args);
  void emit(EventKind kind, const std::string& name, std::uint64_t span,
            std::vector<TraceArg> args);
  std::uint64_t now_ns() const;

  TraceSink* sink_ = nullptr;
  const mpc::Metrics* metrics_ = nullptr;
  bool host_counters_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_span_ = 1;
  std::vector<std::uint64_t> stack_;  ///< Open span ids, outermost first.
  std::chrono::steady_clock::time_point start_;
};

/// True when tracing is on; use to guard argument composition at call sites.
inline bool enabled(const TraceSession* session) {
  return session != nullptr && session->active();
}

/// RAII span: emits a begin event on construction and an end event on
/// destruction. The end event carries the rounds/communication charged and
/// the peak load observed while the span was open (when the session is
/// attached to a Metrics object) plus any args attached via Span::arg().
/// Constructing with a null/inactive session is a no-op.
class Span {
 public:
  Span(TraceSession* session, const std::string& name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return session_ != nullptr; }

  /// Emit the end event now; the destructor then does nothing.
  void end();

  /// Attach an argument to the end event (counters measured inside the
  /// span, e.g. candidate seeds evaluated). No-op when inactive.
  void arg(std::string key, std::uint64_t v);
  void arg(std::string key, std::int64_t v);
  void arg(std::string key, double v);
  void arg(std::string key, std::string v);

 private:
  TraceSession* session_ = nullptr;  ///< Null when inactive.
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t rounds_before_ = 0;
  std::uint64_t comm_before_ = 0;
  std::vector<TraceArg> end_args_;
};

/// Primitive-level instant event: one Lemma-4 primitive invocation charging
/// `rounds` rounds and `communication` words under `label`. No-op (single
/// pointer check, no formatting) when tracing is off.
void trace_primitive(TraceSession* session, const std::string& label,
                     std::uint64_t rounds, std::uint64_t communication);

}  // namespace dmpc::obs
