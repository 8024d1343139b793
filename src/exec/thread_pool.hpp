// Reusable host thread pool for per-machine local computation.
//
// The MPC model charges nothing for work a machine does on its own words —
// but this simulator runs on one host, so "free" local computation is the
// wall-time bottleneck (seed evaluation over O(Delta^4)-sized families
// dominates every pipeline). The pool parallelizes exactly those loops.
//
// Design:
//  - One pool, many batches: `run(tasks, fn)` executes fn(0..tasks-1) and
//    blocks until all complete. Workers persist across batches.
//  - The calling thread participates, so a pool built for T threads uses
//    T OS threads total (T-1 workers + the caller).
//  - Tasks are claimed dynamically (atomic counter) for load balance; this
//    is safe for determinism because callers (exec/parallel.hpp) make the
//    *work decomposition* fixed — which thread runs a chunk never affects
//    what the chunk computes or where it writes.
//  - Tasks must not throw: exec::Executor wraps user callables and captures
//    exceptions before they reach the pool (rethrowing the lowest-index one
//    so failures are deterministic too).
//  - Nested run() from inside a task executes inline on the claiming thread
//    (see in_worker()); parallel helpers use this to make nesting safe.
//  - Host counters, and the metrics registry the workers write to, bind to
//    obs::MetricsRegistry::current() at construction, so a pool built
//    inside a solve's obs::RegistryScope must not outlive that scope.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dmpc::obs {
class Counter;
class Gauge;
}

namespace dmpc::exec {

class ThreadPool {
 public:
  /// A pool that uses `threads` OS threads in total (>= 1; spawns
  /// threads - 1 workers, the caller contributes the last).
  explicit ThreadPool(std::uint32_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in a batch (workers + caller).
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(workers_.size()) + 1;
  }

  /// Execute task(0), ..., task(tasks - 1), in any order, possibly
  /// concurrently; returns when all have completed. `task` must not throw.
  /// Calling run() from inside a task executes the nested batch inline.
  /// One orchestrating thread per pool: run() must not be invoked from two
  /// threads concurrently (the Executor wrappers honor this).
  void run(std::uint64_t tasks, const std::function<void(std::uint64_t)>& task);

  /// True when the current thread is executing a pool task (any pool).
  static bool in_worker();

 private:
  void worker_loop();
  void claim_tasks(const std::function<void(std::uint64_t)>& task,
                   std::uint64_t tasks, bool is_worker);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Batch state, guarded by mutex_ (next_ is additionally atomic so claiming
  // does not serialize on the mutex).
  const std::function<void(std::uint64_t)>* job_ = nullptr;
  std::uint64_t job_tasks_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t generation_ = 0;
  std::uint32_t active_claimers_ = 0;  ///< Workers inside the claim loop.
  bool stop_ = false;
  std::atomic<std::uint64_t> next_{0};
  std::vector<std::thread> workers_;

  // Host-section observability in the registry current when the pool is
  // built (obs::MetricsRegistry::current(), which the workers adopt too):
  // dynamic task claiming makes these scheduling-dependent, so they are
  // non-golden by construction and never enter report JSON. Handles are
  // resolved once here so the claim loop pays one relaxed add per batch per
  // thread.
  obs::Counter* tasks_metric_ = nullptr;    ///< exec/pool_tasks
  obs::Counter* steals_metric_ = nullptr;   ///< exec/steals (worker-claimed)
  obs::Gauge* imbalance_metric_ = nullptr;  ///< exec/imbalance_max_tasks
  obs::Counter* cpu_metric_ = nullptr;      ///< exec/task_cpu_ns
  obs::Counter* allocs_metric_ = nullptr;   ///< exec/task_allocs
  obs::Counter* alloc_bytes_metric_ = nullptr;  ///< exec/task_alloc_bytes
};

}  // namespace dmpc::exec
