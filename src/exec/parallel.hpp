// Deterministic host-parallel loops.
//
// Every helper here guarantees *bitwise-identical results regardless of
// thread count* (including 1). The mechanism is always the same three rules:
//
//  1. Static chunking: the decomposition of [begin, end) into chunks depends
//     only on the range size and the `grain` argument — never on how many
//     threads execute them. Which thread runs a chunk is dynamic (for load
//     balance) but cannot affect what the chunk computes.
//  2. Ordered reduction: map_reduce folds within each chunk left-to-right
//     and then folds the chunk partials left-to-right — a fixed association,
//     so even non-associative combines (floating-point sums) are
//     reproducible across thread counts.
//  3. Lowest-index selection: find_first returns the smallest qualifying
//     index of the whole range, not "whichever thread got there first";
//     exceptions thrown by callables are rethrown for the lowest failing
//     chunk.
//
// The serial path (no pool, or nested inside a pool task) runs the *same*
// chunked algorithm, which is what makes 1-thread and N-thread runs agree
// even for floating-point reductions.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"

namespace dmpc::exec {

/// A copyable handle on an optional shared thread pool. Default-constructed
/// (or with_threads(1)) it is serial: every helper runs inline with zero
/// threading overhead. Cheap to copy; copies share the pool and the dispatch
/// counters, which bind to obs::MetricsRegistry::current() at construction.
class Executor {
 public:
  Executor();

  /// Serial executor (no pool).
  static Executor serial() { return Executor(); }

  /// An executor using `threads` OS threads; 0 = hardware concurrency,
  /// 1 = serial. The pool is created eagerly and shared by copies.
  static Executor with_threads(std::uint32_t threads);

  /// Threads a helper may use (1 when serial).
  std::uint32_t threads() const { return pool_ ? pool_->size() : 1; }

  bool parallel() const { return pool_ != nullptr; }

  /// fn(i) for every i in [begin, end). fn must be safe to call concurrently
  /// for distinct i (writes to disjoint state only). `grain` = indices per
  /// chunk; results never depend on it, only scheduling overhead does.
  template <typename Fn>
  void for_each(std::uint64_t begin, std::uint64_t end, Fn&& fn,
                std::uint64_t grain = 1) const {
    if (end <= begin) return;
    const std::uint64_t g = grain == 0 ? 1 : grain;
    const std::uint64_t chunks = (end - begin + g - 1) / g;
    run_chunks(chunks, [&](std::uint64_t c) {
      const std::uint64_t lo = begin + c * g;
      const std::uint64_t hi = std::min(end, lo + g);
      for (std::uint64_t i = lo; i < hi; ++i) fn(i);
    });
  }

  /// Ordered reduction: returns
  ///   combine(...combine(init, P_0)..., P_{k-1})
  /// where chunk partial P_c = map(lo_c) folded left-to-right with combine
  /// over the chunk's indices. The association is fixed by `grain`, so the
  /// result is identical for every thread count (floating-point included).
  template <typename T, typename Map, typename Combine>
  T map_reduce(std::uint64_t begin, std::uint64_t end, T init, Map&& map,
               Combine&& combine, std::uint64_t grain = 1024) const {
    if (end <= begin) return init;
    const std::uint64_t g = grain == 0 ? 1 : grain;
    const std::uint64_t chunks = (end - begin + g - 1) / g;
    std::vector<T> partials(chunks);
    run_chunks(chunks, [&](std::uint64_t c) {
      const std::uint64_t lo = begin + c * g;
      const std::uint64_t hi = std::min(end, lo + g);
      T acc = map(lo);
      for (std::uint64_t i = lo + 1; i < hi; ++i) acc = combine(acc, map(i));
      partials[c] = std::move(acc);
    });
    T result = std::move(init);
    for (T& p : partials) result = combine(std::move(result), std::move(p));
    return result;
  }

  /// Smallest i in [begin, end) with pred(i), or `end` if none. pred must be
  /// pure (it may be skipped for indices above an already-found match and
  /// may run more than the serial short-circuit count).
  template <typename Pred>
  std::uint64_t find_first(std::uint64_t begin, std::uint64_t end, Pred&& pred,
                           std::uint64_t grain = 1) const {
    if (end <= begin) return end;
    const std::uint64_t g = grain == 0 ? 1 : grain;
    const std::uint64_t chunks = (end - begin + g - 1) / g;
    std::atomic<std::uint64_t> best{end};
    run_chunks(chunks, [&](std::uint64_t c) {
      const std::uint64_t lo = begin + c * g;
      // A chunk strictly above the current best cannot improve it.
      if (lo >= best.load(std::memory_order_relaxed)) return;
      const std::uint64_t hi = std::min(end, lo + g);
      for (std::uint64_t i = lo; i < hi; ++i) {
        if (pred(i)) {
          std::uint64_t cur = best.load(std::memory_order_relaxed);
          while (i < cur && !best.compare_exchange_weak(
                                cur, i, std::memory_order_relaxed)) {
          }
          return;
        }
      }
    });
    return best.load(std::memory_order_relaxed);
  }

 private:
  /// Dispatch `chunks` chunk bodies over the pool (or inline, in order, when
  /// serial). Exceptions from chunk bodies are captured and the one from the
  /// lowest-index chunk is rethrown after all chunks finish.
  template <typename ChunkFn>
  void run_chunks(std::uint64_t chunks, ChunkFn&& chunk_fn) const {
    if (pool_ == nullptr || chunks == 1 || ThreadPool::in_worker()) {
      note_inline_dispatch(chunks);
      for (std::uint64_t c = 0; c < chunks; ++c) chunk_fn(c);
      return;
    }
    run_chunks_pooled(chunks, chunk_fn);
  }

  void run_chunks_pooled(std::uint64_t chunks,
                         const std::function<void(std::uint64_t)>& chunk_fn) const;

  /// Host-section dispatch counters; out-of-line so this header stays
  /// registry-free.
  void note_inline_dispatch(std::uint64_t chunks) const;

  std::shared_ptr<ThreadPool> pool_;
  obs::Counter* inline_dispatches_ = nullptr;  ///< exec/inline_dispatches
  obs::Counter* inline_chunks_ = nullptr;      ///< exec/inline_chunks
  obs::Counter* pool_dispatches_ = nullptr;    ///< exec/pool_dispatches
  obs::Counter* pool_chunks_ = nullptr;        ///< exec/pool_chunks
};

/// Sort `values` with a deterministic parallel merge sort: fixed-size sorted
/// runs merged pairwise in index order. The decomposition depends only on
/// `n` — never on the executor — so the exact output permutation (including
/// the order of equal elements, which may differ from std::sort's) is
/// byte-identical for every thread count; a serial executor runs the same
/// runs and merges inline, in order.
template <typename T, typename Less>
void parallel_sort(const Executor& ex, std::vector<T>& values, Less less) {
  constexpr std::uint64_t kRun = 1 << 15;
  const std::uint64_t n = values.size();
  if (n <= kRun) {
    std::sort(values.begin(), values.end(), less);
    return;
  }
  const std::uint64_t runs = (n + kRun - 1) / kRun;
  ex.for_each(0, runs, [&](std::uint64_t r) {
    const std::uint64_t lo = r * kRun;
    const std::uint64_t hi = std::min(n, lo + kRun);
    std::sort(values.begin() + lo, values.begin() + hi, less);
  });
  for (std::uint64_t width = kRun; width < n; width *= 2) {
    const std::uint64_t pairs = (n + 2 * width - 1) / (2 * width);
    ex.for_each(0, pairs, [&](std::uint64_t p) {
      const std::uint64_t lo = p * 2 * width;
      const std::uint64_t mid = std::min(n, lo + width);
      const std::uint64_t hi = std::min(n, lo + 2 * width);
      if (mid < hi) {
        std::inplace_merge(values.begin() + lo, values.begin() + mid,
                           values.begin() + hi, less);
      }
    });
  }
}

template <typename T>
void parallel_sort(const Executor& ex, std::vector<T>& values) {
  parallel_sort(ex, values, std::less<T>());
}

}  // namespace dmpc::exec
