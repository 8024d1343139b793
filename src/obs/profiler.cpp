#include "obs/profiler.hpp"

#include <time.h>

#include <algorithm>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace dmpc::obs {

namespace {

/// Sentinel the Cluster uses for unattributed (central-primitive) checks.
constexpr std::uint64_t kAnyMachine = ~0ull;

/// Sort key for top-k ties: attributed machines first, by index.
std::uint64_t machine_rank(std::int64_t machine) {
  return machine < 0 ? ~0ull : static_cast<std::uint64_t>(machine);
}

}  // namespace

std::uint64_t gini_ppm(std::vector<std::uint64_t> samples) {
  const std::size_t n = samples.size();
  if (n < 2) return 0;
  std::sort(samples.begin(), samples.end());
  // sum_{i<j} |x_i - x_j| = sum_i (2i + 1 - n) * x_(i)  over sorted x.
  __int128 pair_sum = 0;
  __int128 total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pair_sum += static_cast<__int128>(2 * static_cast<std::int64_t>(i) + 1 -
                                      static_cast<std::int64_t>(n)) *
                static_cast<__int128>(samples[i]);
    total += samples[i];
  }
  if (total == 0) return 0;
  const __int128 denom = static_cast<__int128>(n) * total;
  return static_cast<std::uint64_t>(pair_sum * 1000000 / denom);
}

RoundProfiler::RoundProfiler(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity) {
  DMPC_CHECK_MSG(ring_capacity_ > 0, "profiler ring capacity must be > 0");
}

void RoundProfiler::observe_load(std::uint64_t words, std::uint64_t machine) {
  window_count_ += 1;
  window_sum_ += words;
  window_max_ = std::max(window_max_, words);
  const bool attributed = machine != kAnyMachine;
  if (attributed) window_attributed_ += 1;
  if (samples_.size() < kSampleCap) {
    samples_.push_back(words);
  } else {
    samples_dropped_ += 1;
  }
  // Streaming top-k: exact over all observations regardless of sample cap.
  ProfileTopEntry entry;
  entry.machine = attributed ? static_cast<std::int64_t>(machine) : -1;
  entry.words = words;
  top_.push_back(entry);
  std::stable_sort(top_.begin(), top_.end(),
                   [](const ProfileTopEntry& a, const ProfileTopEntry& b) {
                     if (a.words != b.words) return a.words > b.words;
                     return machine_rank(a.machine) < machine_rank(b.machine);
                   });
  if (top_.size() > kTopK) top_.resize(kTopK);
}

void RoundProfiler::commit(const std::string& label, std::uint64_t round_end,
                           std::uint64_t rounds,
                           std::uint64_t total_communication) {
  ProfileRecord record;
  record.label = label;
  record.round_begin = last_round_;
  record.round_end = round_end;
  record.rounds = rounds;
  record.comm_words = total_communication - last_comm_;
  record.load_count = window_count_;
  record.load_sum = window_sum_;
  record.load_max = window_max_;
  record.mean_load = window_count_ == 0 ? 0 : window_sum_ / window_count_;
  record.gini_ppm = gini_ppm(std::move(samples_));
  record.attributed = window_attributed_;
  record.top = std::move(top_);

  auto& summary = by_label_[label];
  summary.records += 1;
  summary.rounds += rounds;
  summary.comm_words += record.comm_words;
  summary.load_count += record.load_count;
  summary.load_sum += record.load_sum;
  summary.load_max = std::max(summary.load_max, record.load_max);
  summary.gini_max_ppm = std::max(summary.gini_max_ppm, record.gini_ppm);

  load_max_ = std::max(load_max_, record.load_max);
  gini_max_ppm_ = std::max(gini_max_ppm_, record.gini_ppm);
  records_committed_ += 1;

  ring_.push_back(std::move(record));
  if (ring_.size() > ring_capacity_) ring_.pop_front();

  // Open the next window.
  window_count_ = 0;
  window_sum_ = 0;
  window_max_ = 0;
  window_attributed_ = 0;
  samples_.clear();
  top_.clear();
  last_round_ = round_end;
  last_comm_ = total_communication;
}

ProfileSnapshot RoundProfiler::snapshot() const {
  ProfileSnapshot out;
  out.enabled = true;
  out.ring_capacity = ring_capacity_;
  out.top_k = kTopK;
  out.sample_cap = kSampleCap;
  out.records_committed = records_committed_;
  out.records_dropped = records_committed_ - ring_.size();
  out.samples_dropped = samples_dropped_;
  out.load_max = load_max_;
  out.gini_max_ppm = gini_max_ppm_;
  out.by_label = by_label_;
  out.ring.assign(ring_.begin(), ring_.end());
  return out;
}

void RoundProfiler::reset() {
  window_count_ = 0;
  window_sum_ = 0;
  window_max_ = 0;
  window_attributed_ = 0;
  last_round_ = 0;
  last_comm_ = 0;
  samples_.clear();
  top_.clear();
  ring_.clear();
  by_label_.clear();
  records_committed_ = 0;
  samples_dropped_ = 0;
  load_max_ = 0;
  gini_max_ppm_ = 0;
}

void ProfileSnapshot::export_to(MetricsRegistry& registry) const {
  if (!enabled) return;
  const auto section = MetricSection::kModel;
  registry.counter("profile/records", section).add(records_committed);
  registry.counter("profile/load_max", section).add(load_max);
  registry.counter("profile/gini_max_ppm", section).add(gini_max_ppm);
  std::uint64_t rounds = 0;
  std::uint64_t comm = 0;
  std::uint64_t observations = 0;
  auto& gini_hist = registry.histogram(
      "profile/record_gini_ppm",
      {10000, 50000, 100000, 250000, 500000, 750000, 900000}, section);
  for (const auto& [label, s] : by_label) {
    rounds += s.rounds;
    comm += s.comm_words;
    observations += s.load_count;
    registry.counter("profile/gini_max_ppm", label, section)
        .add(s.gini_max_ppm);
  }
  registry.counter("profile/rounds", section).add(rounds);
  registry.counter("profile/comm_words", section).add(comm);
  registry.counter("profile/load_observations", section).add(observations);
  // The histogram covers the retained ring (the snapshot's own scope); the
  // evicted prefix is still counted in records_committed and by_label.
  for (const ProfileRecord& r : ring) gini_hist.observe(r.gini_ppm);
}

Json to_json(const ProfileTopEntry& entry) {
  return Json::object()
      .set("machine", static_cast<std::int64_t>(entry.machine))
      .set("words", entry.words);
}

Json to_json(const ProfileSnapshot& profile) {
  Json labels = Json::object();
  for (const auto& [label, s] : profile.by_label) {
    labels.set(label, Json::object()
                          .set("records", s.records)
                          .set("rounds", s.rounds)
                          .set("comm_words", s.comm_words)
                          .set("load_count", s.load_count)
                          .set("load_sum", s.load_sum)
                          .set("load_max", s.load_max)
                          .set("gini_max_ppm", s.gini_max_ppm));
  }
  Json ring = Json::array();
  for (const ProfileRecord& r : profile.ring) {
    Json top = Json::array();
    for (const ProfileTopEntry& entry : r.top) top.push(to_json(entry));
    ring.push(Json::object()
                  .set("label", r.label)
                  .set("round_begin", r.round_begin)
                  .set("round_end", r.round_end)
                  .set("rounds", r.rounds)
                  .set("comm_words", r.comm_words)
                  .set("load_count", r.load_count)
                  .set("load_sum", r.load_sum)
                  .set("load_max", r.load_max)
                  .set("mean_load", r.mean_load)
                  .set("gini_ppm", r.gini_ppm)
                  .set("attributed", r.attributed)
                  .set("top", std::move(top)));
  }
  return Json::object()
      .set("ring_capacity", profile.ring_capacity)
      .set("top_k", profile.top_k)
      .set("sample_cap", profile.sample_cap)
      .set("records_committed", profile.records_committed)
      .set("records_dropped", profile.records_dropped)
      .set("samples_dropped", profile.samples_dropped)
      .set("load_max", profile.load_max)
      .set("gini_max_ppm", profile.gini_max_ppm)
      .set("by_label", std::move(labels))
      .set("ring", std::move(ring));
}

// ---------------------------------------------------------------------------
// Host-side scope profiler
// ---------------------------------------------------------------------------

namespace detail {
thread_local AllocTally g_alloc_tally{0, 0, 0};
}  // namespace detail

AllocCounters thread_alloc_counters() {
  AllocCounters out;
  out.allocations = detail::g_alloc_tally.allocations;
  out.bytes = detail::g_alloc_tally.bytes;
  out.frees = detail::g_alloc_tally.frees;
  return out;
}

std::uint64_t thread_cpu_time_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
  return 0;
}

HostScope::HostScope(std::string name, TraceSession* session)
    : name_(std::move(name)),
      session_(session),
      wall_begin_(wall_time_ns()),
      cpu_begin_(thread_cpu_time_ns()),
      alloc_begin_(thread_alloc_counters()) {}

HostScope::~HostScope() {
  const std::uint64_t wall = wall_time_ns() - wall_begin_;
  const std::uint64_t cpu = thread_cpu_time_ns() - cpu_begin_;
  const AllocCounters now = thread_alloc_counters();
  const std::uint64_t allocs = now.allocations - alloc_begin_.allocations;
  const std::uint64_t bytes = now.bytes - alloc_begin_.bytes;

  auto& registry = MetricsRegistry::current();
  const auto section = MetricSection::kHost;
  registry.counter("host/" + name_ + "/calls", section).add(1);
  registry.counter("host/" + name_ + "/wall_ns", section).add(wall);
  registry.counter("host/" + name_ + "/cpu_ns", section).add(cpu);
  registry.counter("host/" + name_ + "/allocs", section).add(allocs);
  registry.counter("host/" + name_ + "/alloc_bytes", section).add(bytes);

  if (session_ != nullptr && session_->host_counters_enabled()) {
    session_->counter("hostprof/" + name_,
                      {arg("wall_ns", wall), arg("cpu_ns", cpu),
                       arg("allocs", allocs), arg("alloc_bytes", bytes)});
  }
}

}  // namespace dmpc::obs
