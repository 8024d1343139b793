// Deterministic metrics registries: one per solve, folded into a
// process-wide one.
//
// The trace layer (trace.hpp) answers "what happened, in order"; this layer
// answers "how much, in total". Producers across the stack register named
// counters, gauges, and fixed-bucket histograms once and bump them on the hot
// path; consumers take an explicit MetricsSnapshot and serialize it.
//
// Determinism contract (mirrors TraceArg):
//  * Values are integer-exact — counters and gauges are 64-bit integers,
//    histograms have fixed integer bucket bounds. No floats anywhere.
//  * Snapshots list metrics in name order, so serialized output never
//    depends on process history or on which thread registered a name first.
//  * Metrics are segregated into three sections:
//      - kModel:    golden. Deterministic functions of (graph, options minus
//                   threads); byte-identical across runs, thread counts, and
//                   admissible fault plans. Safe to embed in report JSON.
//      - kRecovery: deterministic for a fixed fault plan but varies across
//                   plans (fault ledger exports). Excluded from report JSON,
//                   which already carries a typed "recovery" block.
//      - kHost:     non-golden. Wall time, peak RSS, executor task/steal
//                   counts — anything scheduling- or machine-dependent.
//    to_json() groups by section so goldens can compare the model subtree
//    alone; to_json_section() extracts one section.
//
// Producers write to MetricsRegistry::current(): the registry of the
// innermost RegistryScope open on the calling thread, or global() outside
// every scope. Each Solver::solve opens its own scope, so a solve's snapshot
// holds exactly its own values even while other solves run in the same
// process. When a scope closes its values fold into the enclosing registry:
// counters and histograms add; gauges (point-in-time samples such as wall
// clock or RSS) take the inner value. A ThreadPool binds its workers to the
// registry current when the pool is built.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace dmpc::obs {

/// Which determinism class a metric belongs to. See file comment.
enum class MetricSection : std::uint8_t { kModel = 0, kRecovery = 1, kHost = 2 };

/// Stable short name: "model", "recovery", "host".
const char* metric_section_name(MetricSection section);

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// Stable short name: "counter", "gauge", "histogram".
const char* metric_kind_name(MetricKind kind);

/// Monotone accumulator. Thread-safe (relaxed atomics): concurrent adds from
/// executor workers are allowed; the *total* must still be deterministic for
/// kModel metrics (producers guarantee that, as for mpc::Metrics).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value (pool size, RSS, wall clock). `record_max`
/// is a monotone-max update for peak-style gauges.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void record_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in strictly
/// increasing order; an implicit overflow bucket catches everything above
/// the last bound. Bucket layout is fixed at registration, so serialized
/// output never depends on the observed values.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// bounds().size() + 1 buckets; last is the overflow bucket.
  std::vector<std::uint64_t> counts() const;
  std::uint64_t total() const { return total_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Add another histogram's bucket counts (same bounds) and sum.
  void merge(const std::vector<std::uint64_t>& counts, std::uint64_t sum);

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One serialized metric value. For histograms `value` is the observation
/// count and the bucket detail lives in `bounds`/`counts`/`sum`.
struct MetricValue {
  std::string name;
  MetricSection section = MetricSection::kModel;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t value = 0;
  std::vector<std::uint64_t> bounds;  // histogram only
  std::vector<std::uint64_t> counts;  // histogram only (bounds.size() + 1)
  std::int64_t sum = 0;               // histogram only
};

/// An ordered, immutable copy of every registered metric's value at one
/// instant. Entries are in name order — byte-stable by construction.
struct MetricsSnapshot {
  std::vector<MetricValue> entries;

  /// Lookup by full name; nullptr when absent.
  const MetricValue* find(const std::string& name) const;
};

/// Registry of named metrics. Registration is idempotent: the first call
/// creates the metric, later calls with the same name return the same object
/// (and DMPC_CHECK that kind/section match). Handles returned by the
/// accessors are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry: current() outside every RegistryScope, and
  /// where outermost scopes fold. Never destroyed (intentionally leaked) so
  /// worker threads and static-lifetime pools can bump counters during
  /// teardown.
  static MetricsRegistry& global();

  /// The registry producers write to on this thread: the innermost open
  /// RegistryScope's, the pool's for a ThreadPool worker, else global().
  static MetricsRegistry& current();

  /// Make `registry` current on the calling thread for the rest of its life,
  /// with no fold (a ThreadPool worker adopts its pool's registry).
  static void adopt(MetricsRegistry& registry);

  Counter& counter(const std::string& name,
                   MetricSection section = MetricSection::kModel);
  /// Labeled family member, named "<family>/<label>".
  Counter& counter(const std::string& family, const std::string& label,
                   MetricSection section);
  Gauge& gauge(const std::string& name,
               MetricSection section = MetricSection::kModel);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds,
                       MetricSection section = MetricSection::kModel);

  /// Copy of all current values, in name order.
  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    MetricSection section;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  friend class RegistryScope;

  Entry& find_or_create(const std::string& name, MetricSection section,
                        MetricKind kind, std::vector<std::uint64_t> bounds);
  /// Add a closing scope's values, registering the names it lacks.
  void fold(const MetricsSnapshot& snapshot);

  mutable std::mutex mutex_;
  /// Map nodes never move, so handles into an Entry stay valid.
  std::map<std::string, Entry> entries_;
};

/// Makes a fresh registry current on the constructing thread until the
/// scope closes; then its values fold into the registry that was current
/// before (an enclosing scope's, or global()). Scopes nest and close in
/// reverse order on the thread that opened them. A ThreadPool built inside a
/// scope binds to the scope's registry, so it must not outlive the scope.
class RegistryScope {
 public:
  RegistryScope();
  ~RegistryScope();
  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;

  MetricsRegistry& registry() { return registry_; }

 private:
  MetricsRegistry registry_;
  MetricsRegistry* enclosing_;  ///< The thread's current() before this scope.
};

/// Monotonic wall clock in nanoseconds since the first call in this process.
/// Non-golden by definition; host section only.
std::uint64_t wall_time_ns();

/// Peak resident set size of the process in bytes (getrusage), 0 when
/// unavailable. Non-golden.
std::uint64_t peak_rss_bytes();

/// Sample wall clock and peak RSS into `reg` as host-section gauges
/// "host/wall_ns" and "host/peak_rss_bytes".
void sample_host(MetricsRegistry& reg);

/// Serialize one section as a flat name -> value object, in name order.
/// Histograms serialize as {"total","sum","bounds","counts"}.
/// With include_zero = false, entries whose value (and, for histograms,
/// observation count) is zero are omitted, so the report "registry" block
/// lists only what the solve actually charged.
Json to_json_section(const MetricsSnapshot& snapshot, MetricSection section,
                     bool include_zero = true);

/// Serialize all sections, grouped: {"model":{...},"recovery":{...},
/// "host":{...}}. The model subtree is golden; the rest is not.
Json to_json(const MetricsSnapshot& snapshot);

}  // namespace dmpc::obs
