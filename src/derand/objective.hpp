// Objective functions for derandomization.
//
// Every derandomized step in the paper proves E_h[q(h)] >= Q for an
// objective q that decomposes into machine-local terms (§2.4: "a sum of
// functions calculable by individual machines"). The engines in this module
// find a concrete seed h* with q(h*) meeting a target, charging MPC rounds
// per the paper's cost model.
//
// The oracle API is range-based: engines hand the objective a contiguous
// batch of candidate seeds (evaluate_batch), and objectives that decompose
// over a point universe derive from RangeObjective, which precomputes all
// raw hash values per seed through the lane-parallel field kernel
// (field::PowerTable) and hands term accumulation a flat value array. Both
// layers have exact scalar fallbacks, so third-party objectives that only
// implement evaluate() keep working unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/parallel.hpp"
#include "field/batch_eval.hpp"
#include "hash/kwise.hpp"

namespace dmpc::derand {

/// A derandomization objective over a seed-indexed family.
class Objective {
 public:
  virtual ~Objective() = default;

  /// Exact value q(h_seed). In the model this is a sum over machine-local
  /// terms followed by one aggregation; implementations must be pure.
  virtual double evaluate(std::uint64_t seed) const = 0;

  /// Number of machine-local terms (aggregation size for round charging).
  virtual std::uint64_t term_count() const = 0;

  /// Batch oracle: out[i] = evaluate(seeds[i]). The default is the exact
  /// scalar loop; RangeObjective and other hot objectives override it to
  /// amortize per-seed setup. Must be bit-identical to per-seed evaluate().
  virtual void evaluate_batch(const std::uint64_t* seeds, std::size_t count,
                              double* out) const {
    for (std::size_t i = 0; i < count; ++i) out[i] = evaluate(seeds[i]);
  }

  /// Contiguous convenience: out[i] = evaluate(seed_lo + i).
  void evaluate_batch(std::uint64_t seed_lo, std::uint64_t count,
                      double* out) const;
};

/// An objective that can additionally report conditional expectations given
/// a fixed prefix of seed chunks — what the method of conditional
/// expectations consumes.
class ConditionalObjective : public Objective {
 public:
  /// E[q(h) | first prefix.size() chunks fixed to `prefix`, next chunk fixed
  /// to `candidate`], expectation over the remaining chunks uniform.
  virtual double conditional_expectation(
      const std::vector<std::uint64_t>& prefix,
      std::uint64_t candidate) const = 0;

  /// Batch form of the conditional oracle over a contiguous digit range:
  /// out[i] = conditional_expectation(prefix, digit_lo + i). The default is
  /// the exact scalar loop; ExhaustiveConditional overrides it to route the
  /// suffix enumeration through the base objective's batch oracle. Must be
  /// bit-identical to per-digit conditional_expectation().
  virtual void conditional_expectation_batch(
      const std::vector<std::uint64_t>& prefix, std::uint64_t digit_lo,
      std::uint64_t count, double* out) const {
    for (std::uint64_t i = 0; i < count; ++i) {
      out[i] = conditional_expectation(prefix, digit_lo + i);
    }
  }
};

/// An objective whose terms read the hash of points from a fixed universe.
//
// Derived classes bind the universe once (bind_points); evaluate() then
// computes ALL raw hash values for a seed in one lane-parallel PowerTable
// sweep and calls the term interface with the flat array:
//
//   prepare_seed(seed, values)                       — optional prepass
//   accumulate_terms(range_begin, range_end, ...)    — sum terms over ranges
//
// Terms index `values` by point position in the bound array, so nothing
// re-evaluates the polynomial — the former per-term HashFn::raw calls (the
// derand inner loop's dominant cost) collapse into the batched kernel.
// Scratch is thread-local and reused across seeds: the steady-state sweep
// performs no allocation.
class RangeObjective : public Objective {
 public:
  /// Number of accumulable term ranges. Distinct from term_count(): the
  /// latter is the MODEL aggregation size (round charging) and keeps its
  /// semantics; range_count() partitions the host-side term sum.
  virtual std::uint64_t range_count() const = 0;

  /// Sum of the terms for ranges [range_begin, range_end) under `seed`.
  /// `values[i]` is the raw hash (in [0, p)) of the i-th bound point.
  /// Implementations must accumulate in ascending range order so the
  /// floating-point sum is identical to the scalar path.
  virtual double accumulate_terms(std::uint64_t range_begin,
                                  std::uint64_t range_end, std::uint64_t seed,
                                  const std::uint64_t* values) const = 0;

  /// Optional per-seed prepass over the full value array (e.g. a local-min
  /// bitmap), run once before any accumulate_terms call for that seed. May
  /// write thread-local scratch only (evaluate() stays const/pure).
  virtual void prepare_seed(std::uint64_t seed,
                            const std::uint64_t* values) const {
    (void)seed;
    (void)values;
  }

  /// One PowerTable sweep + prepare + full-range accumulation.
  double evaluate(std::uint64_t seed) const override;

  void evaluate_batch(const std::uint64_t* seeds, std::size_t count,
                      double* out) const override;

  std::size_t point_count() const { return table_.count(); }

 protected:
  /// Bind the point universe (hash-function inputs, in term index order) and
  /// the family evaluated over it. Rebinding reuses the table allocation.
  void bind_points(const hash::KWiseFamily& family, const std::uint64_t* points,
                   std::size_t count);

  const hash::KWiseFamily& family() const;

 private:
  const hash::KWiseFamily* family_ = nullptr;
  field::PowerTable table_;
};

/// Dispatch accounting for one engine run: kBatchChunk-wide chunks and
/// candidate-seed lanes. Chunks are a logical unit — batch_evaluate sizes
/// its host tasks by its own `grain` — so both counts are pure functions of
/// the candidate count, deterministic across thread counts.
struct BatchStats {
  std::uint64_t calls = 0;
  std::uint64_t lanes = 0;

  BatchStats& operator+=(const BatchStats& other) {
    calls += other.calls;
    lanes += other.lanes;
    return *this;
  }
};

/// Seeds per accounting chunk in batch_evaluate — fixed (never derived from
/// the thread count) so BatchStats are invariant across executors.
inline constexpr std::size_t kBatchChunk = 16;

/// Evaluate seeds[0..count) with out[i] = evaluate(seeds[i]), `grain`
/// evaluate() calls per pool task (the default 1 spreads even a one-chunk
/// batch over the pool; a batch of at most `grain` seeds runs on the calling
/// thread). Returns the dispatch stats, counted in kBatchChunk chunks for
/// every grain; the caller records them once per completed engine run
/// (record_batch_stats) so registry totals stay deterministic.
BatchStats batch_evaluate(const exec::Executor& executor,
                          const Objective& objective,
                          const std::uint64_t* seeds, std::size_t count,
                          double* out, std::size_t grain = 1);

/// Charge the kModel counters `derand/batch_calls` / `derand/lanes_used`.
/// Call once per completed engine run from the orchestrating thread.
void record_batch_stats(const BatchStats& stats);

}  // namespace dmpc::derand
