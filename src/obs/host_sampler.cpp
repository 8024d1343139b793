#include "obs/host_sampler.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "obs/metrics_registry.hpp"

namespace dmpc::obs {

std::int64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int fields = std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(f);
  if (fields != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::int64_t>(resident_pages) *
         static_cast<std::int64_t>(page > 0 ? page : 4096);
}

HostSampler::HostSampler() : HostSampler(Options()) {}

HostSampler::HostSampler(Options options) : options_(options) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  if (options_.interval_ms == 0) options_.interval_ms = 1;
  auto& registry = MetricsRegistry::global();
  const auto host = MetricSection::kHost;
  // gauge() is idempotent: these resolve to the process-wide gauges, fresh
  // zero ones if nothing registered them yet. Every pool keeps
  // exec/queue_depth live here; the storage gauges arrive when a solve's
  // registry scope folds into global().
  bytes_mapped_ = &registry.gauge("storage/bytes_mapped", host);
  resident_bytes_ = &registry.gauge("storage/resident_bytes", host);
  queue_depth_ = &registry.gauge("exec/queue_depth", host);
}

HostSampler::~HostSampler() { stop(); }

bool HostSampler::compiled_in() {
#ifdef DMPC_HOST_SAMPLER
  return true;
#else
  return false;
#endif
}

bool HostSampler::start() {
  if (!compiled_in()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return false;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { loop(); });
  return true;
}

void HostSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void HostSampler::sample_once() {
  HostSample s;
  s.wall_ns = wall_time_ns();
  s.rss_bytes = current_rss_bytes();
  s.bytes_mapped = bytes_mapped_->value();
  s.resident_bytes = resident_bytes_->value();
  s.queue_depth = queue_depth_->value();
  push(s);
}

void HostSampler::push(const HostSample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(sample);
  } else {
    ring_[next_ % options_.ring_capacity] = sample;
  }
  ++next_;
  ++taken_;
}

void HostSampler::loop() {
  while (true) {
    sample_once();
    std::unique_lock<std::mutex> lock(mutex_);
    const bool stopping = stop_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.interval_ms),
        [this] { return stop_requested_; });
    if (stopping) return;
  }
}

std::vector<HostSample> HostSampler::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < options_.ring_capacity) return ring_;
  // Ring is full: oldest entry sits at the next write position.
  std::vector<HostSample> out;
  out.reserve(ring_.size());
  const std::size_t start = next_ % options_.ring_capacity;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % options_.ring_capacity]);
  }
  return out;
}

std::uint64_t HostSampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return taken_;
}

std::uint64_t HostSampler::samples_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return taken_ > ring_.size() ? taken_ - ring_.size() : 0;
}

Json HostSampler::to_json() const {
  Json out = Json::object()
                 .set("interval_ms", options_.interval_ms)
                 .set("capacity",
                      static_cast<std::int64_t>(options_.ring_capacity))
                 .set("taken", samples_taken())
                 .set("dropped", samples_dropped());
  Json samples_json = Json::array();
  for (const HostSample& s : samples()) {
    samples_json.push(Json::object()
                          .set("wall_ns", s.wall_ns)
                          .set("rss_bytes", s.rss_bytes)
                          .set("bytes_mapped", s.bytes_mapped)
                          .set("resident_bytes", s.resident_bytes)
                          .set("queue_depth", s.queue_depth));
  }
  out.set("samples", std::move(samples_json));
  return out;
}

}  // namespace dmpc::obs
