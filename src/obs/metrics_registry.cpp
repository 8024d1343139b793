#include "obs/metrics_registry.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "support/check.hpp"

namespace dmpc::obs {

const char* metric_section_name(MetricSection section) {
  switch (section) {
    case MetricSection::kModel: return "model";
    case MetricSection::kRecovery: return "recovery";
    case MetricSection::kHost: return "host";
  }
  return "unknown";
}

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  DMPC_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                         bounds_.end(),
                 "histogram bounds must be strictly increasing");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // overflow -> size()
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::merge(const std::vector<std::uint64_t>& counts,
                      std::uint64_t sum) {
  DMPC_CHECK_MSG(counts.size() == bounds_.size() + 1,
                 "histogram merge bucket mismatch");
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts_[i].fetch_add(counts[i], std::memory_order_relaxed);
    total += counts[i];
  }
  total_.fetch_add(total, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  for (const auto& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: static-lifetime thread pools may still bump counters
  // after main() returns; a destroyed registry would be UB.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {
// The calling thread's current registry; nullptr means global().
thread_local MetricsRegistry* t_current = nullptr;
}  // namespace

MetricsRegistry& MetricsRegistry::current() {
  return t_current != nullptr ? *t_current : global();
}

void MetricsRegistry::adopt(MetricsRegistry& registry) {
  t_current = &registry;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, MetricSection section, MetricKind kind,
    std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.try_emplace(name);
  Entry& entry = it->second;
  if (!inserted) {
    DMPC_CHECK_MSG(entry.kind == kind,
                   "metric re-registered with a different kind: " + name);
    DMPC_CHECK_MSG(entry.section == section,
                   "metric re-registered in a different section: " + name);
    return entry;
  }
  entry.section = section;
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  return entry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  MetricSection section) {
  return *find_or_create(name, section, MetricKind::kCounter, {}).counter;
}

Counter& MetricsRegistry::counter(const std::string& family,
                                  const std::string& label,
                                  MetricSection section) {
  return counter(family + "/" + label, section);
}

Gauge& MetricsRegistry::gauge(const std::string& name, MetricSection section) {
  return *find_or_create(name, section, MetricKind::kGauge, {}).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> bounds,
                                      MetricSection section) {
  return *find_or_create(name, section, MetricKind::kHistogram,
                         std::move(bounds))
              .histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricValue v;
    v.name = name;
    v.section = entry.section;
    v.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        v.value = static_cast<std::int64_t>(entry.counter->value());
        break;
      case MetricKind::kGauge:
        v.value = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        v.value = static_cast<std::int64_t>(entry.histogram->total());
        v.bounds = entry.histogram->bounds();
        v.counts = entry.histogram->counts();
        v.sum = static_cast<std::int64_t>(entry.histogram->sum());
        break;
    }
    out.entries.push_back(std::move(v));
  }
  return out;
}

void MetricsRegistry::fold(const MetricsSnapshot& snapshot) {
  for (const MetricValue& v : snapshot.entries) {
    switch (v.kind) {
      case MetricKind::kCounter:
        counter(v.name, v.section).add(static_cast<std::uint64_t>(v.value));
        break;
      case MetricKind::kGauge:
        gauge(v.name, v.section).set(v.value);
        break;
      case MetricKind::kHistogram: {
        Histogram& h = histogram(v.name, v.bounds, v.section);
        DMPC_CHECK_MSG(h.bounds() == v.bounds,
                       "histogram folded with different bounds: " + v.name);
        h.merge(v.counts, static_cast<std::uint64_t>(v.sum));
        break;
      }
    }
  }
}

RegistryScope::RegistryScope() : enclosing_(t_current) {
  t_current = &registry_;
}

RegistryScope::~RegistryScope() {
  t_current = enclosing_;
  MetricsRegistry::current().fold(registry_.snapshot());
}

std::uint64_t wall_time_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin)
          .count());
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

void sample_host(MetricsRegistry& reg) {
  reg.gauge("host/wall_ns", MetricSection::kHost)
      .set(static_cast<std::int64_t>(wall_time_ns()));
  reg.gauge("host/peak_rss_bytes", MetricSection::kHost)
      .set(static_cast<std::int64_t>(peak_rss_bytes()));
}

namespace {

Json metric_value_json(const MetricValue& v) {
  if (v.kind != MetricKind::kHistogram) return Json(v.value);
  Json h = Json::object();
  h.set("total", Json(v.value));
  h.set("sum", Json(v.sum));
  Json bounds = Json::array();
  for (const auto b : v.bounds) bounds.push(Json(b));
  h.set("bounds", std::move(bounds));
  Json counts = Json::array();
  for (const auto c : v.counts) counts.push(Json(c));
  h.set("counts", std::move(counts));
  return h;
}

}  // namespace

Json to_json_section(const MetricsSnapshot& snapshot, MetricSection section,
                     bool include_zero) {
  Json out = Json::object();
  for (const auto& entry : snapshot.entries) {
    if (entry.section != section) continue;
    if (!include_zero && entry.value == 0) continue;
    out.set(entry.name, metric_value_json(entry));
  }
  return out;
}

Json to_json(const MetricsSnapshot& snapshot) {
  Json out = Json::object();
  out.set("model", to_json_section(snapshot, MetricSection::kModel));
  out.set("recovery", to_json_section(snapshot, MetricSection::kRecovery));
  out.set("host", to_json_section(snapshot, MetricSection::kHost));
  return out;
}

}  // namespace dmpc::obs
