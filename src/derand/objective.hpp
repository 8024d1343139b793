// Objective functions for derandomization.
//
// Every derandomized step in the paper proves E_h[q(h)] >= Q for an
// objective q that decomposes into machine-local terms (§2.4: "a sum of
// functions calculable by individual machines"). The engines in this module
// find a concrete seed h* with q(h*) meeting a target, charging MPC rounds
// per the paper's cost model.
//
// An objective implements evaluate(); the engines walk the family with one
// SeedWalk and evaluate candidates through batch_evaluate (best of a batch)
// or evaluate_seed (first seed to qualify). Objectives that decompose over a
// point universe derive from RangeObjective, which precomputes all raw hash
// values per seed through the lane-parallel field kernel (field::PowerTable)
// and hands term accumulation a flat value array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
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

  /// The threshold search's oracle: evaluate(seed) when it is >= threshold,
  /// nullopt otherwise. The default evaluates on the calling thread; an
  /// override may spread the host work of that one seed over `executor`,
  /// and may stop as soon as the seed is decided below the threshold (a
  /// conjunction of terms can reject at its first failing term), so it does
  /// not promise to touch every term. The answer must still be exactly the
  /// default's for every executor.
  virtual std::optional<double> evaluate_if_at_least(
      const exec::Executor& executor, std::uint64_t seed,
      double threshold) const {
    (void)executor;
    const double value = evaluate(seed);
    if (value >= threshold) return value;
    return std::nullopt;
  }
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

  std::size_t point_count() const { return table_.count(); }

 protected:
  /// Bind the point universe (hash-function inputs, in term index order) and
  /// the family evaluated over it. Rebinding reuses the table allocation.
  void bind_points(const hash::KWiseFamily& family, const std::uint64_t* points,
                   std::size_t count);

  const hash::KWiseFamily& family() const;

  /// The PowerTable sweep and prepare_seed of evaluate(): the raw values of
  /// every bound point under `seed`, in the calling thread's scratch until
  /// that thread sweeps again.
  const std::uint64_t* sweep(std::uint64_t seed) const;

 private:
  const hash::KWiseFamily* family_ = nullptr;
  field::PowerTable table_;
};

/// Dispatch accounting for one engine run: kBatchChunk-wide chunks and
/// candidate-seed lanes of the batches the model charges. Chunks are a
/// logical unit — batch_evaluate sizes its host tasks by its own `grain` —
/// and an engine that evaluates only a prefix of a charged batch still
/// counts the whole batch (BatchStats::of its charged width), so both
/// counts are pure functions of the charged candidate counts, deterministic
/// across thread counts.
struct BatchStats {
  std::uint64_t calls = 0;
  std::uint64_t lanes = 0;

  /// The stats of one batch of `lanes` candidates.
  static BatchStats of(std::uint64_t lanes);

  BatchStats& operator+=(const BatchStats& other) {
    calls += other.calls;
    lanes += other.lanes;
    return *this;
  }
};

/// Seeds per accounting chunk of a charged batch — fixed (never derived
/// from the thread count) so BatchStats are invariant across executors.
inline constexpr std::size_t kBatchChunk = 16;

/// Evaluate seeds[0..count) with out[i] = evaluate(seeds[i]), `grain`
/// evaluate() calls per pool task (the default 1 spreads even a one-chunk
/// batch over the pool; a batch of at most `grain` seeds runs on the calling
/// thread). Adds `count` to the kHost counter `derand/evaluated_seeds` and
/// returns BatchStats::of(count); the caller records the stats of what it
/// charged once per completed engine run (record_batch_stats) so registry
/// totals stay deterministic.
BatchStats batch_evaluate(const exec::Executor& executor,
                          const Objective& objective,
                          const std::uint64_t* seeds, std::size_t count,
                          double* out, std::size_t grain = 1);

/// objective.evaluate_if_at_least(executor, seed, threshold), profiled and
/// counted like one seed of batch_evaluate (the `derand/batch_eval` host
/// scope and the kHost counter `derand/evaluated_seeds`, which counts the
/// seed whether or not its evaluation ran to the end).
std::optional<double> evaluate_seed(const exec::Executor& executor,
                                    const Objective& objective,
                                    std::uint64_t seed, double threshold);

/// Charge the kModel counters `derand/batch_calls` / `derand/lanes_used`.
/// Call once per completed engine run from the orchestrating thread.
void record_batch_stats(const BatchStats& stats);

}  // namespace dmpc::derand
