#include "exec/thread_pool.hpp"

#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"

namespace dmpc::exec {

namespace {
thread_local bool t_in_worker = false;

/// RAII flag so nested run() calls (and user callables that ask) can detect
/// they are already inside a pool task.
struct WorkerScope {
  bool previous;
  WorkerScope() : previous(t_in_worker) { t_in_worker = true; }
  ~WorkerScope() { t_in_worker = previous; }
};
}  // namespace

bool ThreadPool::in_worker() { return t_in_worker; }

ThreadPool::ThreadPool(std::uint32_t threads) {
  auto& registry = obs::MetricsRegistry::current();
  const auto host = obs::MetricSection::kHost;
  tasks_metric_ = &registry.counter("exec/pool_tasks", host);
  steals_metric_ = &registry.counter("exec/steals", host);
  imbalance_metric_ = &registry.gauge("exec/imbalance_max_tasks", host);
  cpu_metric_ = &registry.counter("exec/task_cpu_ns", host);
  allocs_metric_ = &registry.counter("exec/task_allocs", host);
  alloc_bytes_metric_ = &registry.counter("exec/task_alloc_bytes", host);
  registry.gauge("exec/pool_threads", host)
      .record_max(static_cast<std::int64_t>(threads));
  const std::uint32_t workers = threads <= 1 ? 0 : threads - 1;
  workers_.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, &registry] {
      obs::MetricsRegistry::adopt(registry);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::claim_tasks(const std::function<void(std::uint64_t)>& task,
                             std::uint64_t tasks, bool is_worker) {
  WorkerScope scope;
  // Per-batch host profiling at the task boundary: thread-CPU time and
  // allocation deltas for the claim loop land in kHost counters (one clock
  // read + tally snapshot per batch per thread, not per task).
  const std::uint64_t cpu_begin = obs::thread_cpu_time_ns();
  const obs::AllocCounters alloc_begin = obs::thread_alloc_counters();
  std::uint64_t claimed = 0;
  while (true) {
    const std::uint64_t t = next_.fetch_add(1, std::memory_order_relaxed);
    if (t >= tasks) break;
    task(t);
    ++claimed;
    std::lock_guard<std::mutex> lock(mutex_);
    if (++completed_ == job_tasks_) done_cv_.notify_all();
  }
  if (claimed == 0) return;
  tasks_metric_->add(claimed);
  if (is_worker) steals_metric_->add(claimed);
  imbalance_metric_->record_max(static_cast<std::int64_t>(claimed));
  const obs::AllocCounters alloc_end = obs::thread_alloc_counters();
  cpu_metric_->add(obs::thread_cpu_time_ns() - cpu_begin);
  allocs_metric_->add(alloc_end.allocations - alloc_begin.allocations);
  alloc_bytes_metric_->add(alloc_end.bytes - alloc_begin.bytes);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    const std::function<void(std::uint64_t)>* job = nullptr;
    std::uint64_t tasks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      // Adopt the current batch while holding the lock: run() cannot retire
      // the batch (and reuse next_ for a later one) until active_claimers_
      // drops back to zero, so the copied job pointer stays valid for the
      // whole claim loop.
      seen_generation = generation_;
      job = job_;
      tasks = job_tasks_;
      ++active_claimers_;
    }
    claim_tasks(*job, tasks, /*is_worker=*/true);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_claimers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(std::uint64_t tasks,
                     const std::function<void(std::uint64_t)>& task) {
  if (tasks == 0) return;
  if (workers_.empty() || in_worker()) {
    // No workers, or already inside a pool task: execute inline, in order.
    WorkerScope scope;
    for (std::uint64_t t = 0; t < tasks; ++t) task(t);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &task;
    job_tasks_ = tasks;
    completed_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.notify_all();
  claim_tasks(task, tasks, /*is_worker=*/false);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock,
                  [&] { return completed_ == job_tasks_ && active_claimers_ == 0; });
    job_ = nullptr;
  }
}

}  // namespace dmpc::exec
