#include "exec/parallel.hpp"

#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics_registry.hpp"

namespace dmpc::exec {

Executor::Executor() {
  auto& registry = obs::MetricsRegistry::current();
  const auto host = obs::MetricSection::kHost;
  inline_dispatches_ = &registry.counter("exec/inline_dispatches", host);
  inline_chunks_ = &registry.counter("exec/inline_chunks", host);
  pool_dispatches_ = &registry.counter("exec/pool_dispatches", host);
  pool_chunks_ = &registry.counter("exec/pool_chunks", host);
}

void Executor::note_inline_dispatch(std::uint64_t chunks) const {
  inline_dispatches_->add(1);
  inline_chunks_->add(chunks);
}

Executor Executor::with_threads(std::uint32_t threads) {
  std::uint32_t resolved = threads;
  if (resolved == 0) {
    resolved = std::max(1u, std::thread::hardware_concurrency());
  }
  Executor ex;
  if (resolved > 1) ex.pool_ = std::make_shared<ThreadPool>(resolved);
  return ex;
}

void Executor::run_chunks_pooled(
    std::uint64_t chunks,
    const std::function<void(std::uint64_t)>& chunk_fn) const {
  // Capture at most one exception per batch — the lowest-index chunk's — so
  // error paths are as deterministic as success paths.
  pool_dispatches_->add(1);
  pool_chunks_->add(chunks);
  std::mutex error_mutex;
  std::exception_ptr error;
  std::uint64_t error_chunk = 0;
  pool_->run(chunks, [&](std::uint64_t c) {
    try {
      chunk_fn(c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (error == nullptr || c < error_chunk) {
        error = std::current_exception();
        error_chunk = c;
      }
    }
  });
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace dmpc::exec
