// Guaranteed deterministic seed search.
//
// The proofs establish E_h[q(h)] >= Q over the hash family H. By the
// probabilistic method some h* in H has q(h*) >= Q; moreover, whenever q is
// bounded above by q_max, reverse Markov gives
//
//     Pr_h[q(h) >= t] >= (Q - t) / (q_max - t)   for any t < Q,
//
// i.e. a *constant fraction* of seeds meets a constant-factor-weaker
// threshold. The search enumerates seeds in the family's fixed deterministic
// order, evaluating K candidates per batch — one batch is O(1) MPC rounds,
// since each machine evaluates its local term for all K candidates and a
// single fan-in-S tree aggregates the K sums (K <= S) — and commits to the
// first candidate reaching the threshold. Termination before the family is
// exhausted is unconditional when threshold <= Q.
//
// The model charges every batch in full. The host needs only the seeds up to
// the commit: it evaluates a batch in enumeration order, one seed at a time
// with that seed's work spread over the executor, and stops at the first
// qualifying seed. Each seed goes through Objective::evaluate_if_at_least,
// which only has to decide "below the threshold" for a rejected seed: an
// objective that is a conjunction (the sparsifier stages need every window
// good) rejects at its first failing term. The counting argument does not
// depend on evaluation order, and the objective is pure, so the committed
// seed, its value, `trials` (which is also the number of seeds the host
// starts to evaluate) and every model charge are the same for every thread
// count.
//
// Both production engines walk the family through one SeedWalk:
// try_find_seed commits the first qualifying seed, select_seed the best of
// each batch (the selection commits of both pipelines and the native
// coloring). The textbook prefix-fixing engine (cond_expect.hpp) is the
// faithful §2.4 implementation used where the conditional expectations are
// exactly computable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "derand/objective.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::derand {

/// The stride actually used for a requested (stride, seed_count): the
/// smallest s >= stride mod seed_count (wrapping, never 0) with
/// gcd(s, seed_count) = 1. Coprimality makes t -> (base + t*s) mod seed_count
/// a bijection on [0, seed_count), the exhaustive-coverage property the
/// termination guarantee rests on; a non-coprime stride s visits only
/// seed_count / gcd(s, seed_count) seeds. Exposed for tests.
std::uint64_t effective_stride(std::uint64_t stride, std::uint64_t seed_count);

/// The fixed deterministic order in which every engine walks a family:
/// trial t is seed (base + t * s) mod seed_count, s =
/// effective_stride(stride, seed_count), so the walk visits every seed once
/// before repeating. Plain counting order (base 0, stride 1) walks
/// polynomials in increasing coefficient order, so consecutive steps that
/// each commit "the first good seed" would pick highly correlated functions
/// (h(x) = a*x for small a all favour small inputs); scrambled(count, salt)
/// is the walk the pipelines use, a salt-dependent base and a large stride.
class SeedWalk {
 public:
  /// A salt's base is salt * kSaltStep; the scrambled stride is kStride.
  static constexpr std::uint64_t kSaltStep = 0x9E3779B97F4A7C15ULL;
  static constexpr std::uint64_t kStride = 0xBF58476D1CE4E5B9ULL;

  SeedWalk(std::uint64_t seed_count, std::uint64_t base, std::uint64_t stride);
  static SeedWalk scrambled(std::uint64_t seed_count, std::uint64_t salt) {
    return SeedWalk(seed_count, salt * kSaltStep, kStride);
  }

  std::uint64_t at(std::uint64_t t) const {
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(t) * stride_ + base_) % count_);
  }

 private:
  std::uint64_t count_;
  std::uint64_t base_;    ///< Reduced mod count_.
  std::uint64_t stride_;  ///< Coprime to count_.
};

struct SearchOptions {
  /// Round-charge label (also the trace span name).
  std::string label = "seed_search";
  /// Candidates per O(1)-round batch; clamped to S (the fan-in-S
  /// aggregation argument).
  std::uint64_t candidates_per_batch = 64;
  /// Hard cap on the seeds walked.
  std::uint64_t max_trials = 1 << 20;
  /// Commit to the first seed with objective >= threshold.
  double threshold = 0.0;
  /// The SeedWalk's base and stride. Callers that run many steps (the
  /// sparsifier stages) pass the scrambled walk's constants.
  std::uint64_t seed_base = 0;
  std::uint64_t seed_stride = 1;
};

struct SearchResult {
  std::uint64_t seed = 0;
  double value = 0.0;
  /// Candidates in enumeration order up to and including the committed one.
  std::uint64_t trials = 0;
  std::uint64_t batches = 0;  ///< O(1)-round batches used.
};

/// Find the first seed (in enumeration order) meeting the threshold.
/// Each batch is charged in full; the host evaluates its seeds one at a
/// time through objective.evaluate_if_at_least on the cluster's executor
/// and stops at the first qualifying one, so the commit and the seeds
/// evaluated do not depend on the thread count.
/// nullopt when no seed within options.max_trials qualifies. Where the
/// threshold is an averaging bound over the whole family, that means the
/// guarantee is violated; the sparsifiers take it as their cue to widen
/// their windows. An exhausted search still counts the batches it charged
/// in `derand/batches`, `derand/batch_calls` and `derand/lanes_used`, but
/// not in `derand/searches`, `derand/candidate_seeds` or
/// `derand/trials_per_search`.
std::optional<SearchResult> try_find_seed(mpc::Cluster& cluster,
                                          const Objective& objective,
                                          std::uint64_t seed_count,
                                          const SearchOptions& options);

/// How a pipeline's selection step (§3 Lemma 13, §4 Lemma 21) commits its
/// pairwise-hash seed.
enum class SelectionMode {
  /// Batched best-of threshold search over the family (production path).
  kThresholdSearch,
  /// The textbook §2.4 method of conditional expectations with the
  /// exact-enumeration oracle. Exponential in the seed length, so only
  /// valid for small instances (the family size is checked); used to
  /// demonstrate the paper's §2.4 machinery end-to-end in the real
  /// pipeline.
  kConditionalExpectation,
};

/// Seeds select_seed evaluates at one threshold level before halving it.
inline constexpr std::uint64_t kTrialsPerThreshold = 256;

struct SelectionOptions {
  /// Span and round-charge label; the CE path charges `<label>_ce`.
  std::string label = "selection";
  SelectionMode mode = SelectionMode::kThresholdSearch;
  /// The lemma's bound on the objective (threshold search only).
  double threshold = 0.0;
  /// Candidates per O(1)-round batch (threshold search only).
  std::uint64_t batch = 16;
  /// Decorrelates the seed walk across calls (the pipeline iteration).
  std::uint64_t salt = 0;
  /// batch_evaluate grain: seeds per host pool task.
  std::size_t grain = 1;
};

/// The best-of-batch commit over a pairwise `family`: the selection of both
/// sparsification pipelines and the native coloring's trial round.
/// Threshold search walks SeedWalk::scrambled(family.seed_count(), salt),
/// `batch` seeds per O(1)-round batch, keeping the best seed so far
/// (strict improvement, so the earliest on ties). It commits once the best
/// value v has v >= t and v > 0, where t starts at `threshold` and halves
/// after every kTrialsPerThreshold seeds: the finite-n escape hatch of
/// DESIGN.md (the constant-factor bounds of Lemmas 13/21 are asymptotic,
/// while any nonzero objective value still makes progress). CheckFailure
/// if the family runs out. SelectionMode::kConditionalExpectation runs
/// fix_seed over the family instead; `trials` is then the family size.
SearchResult select_seed(mpc::Cluster& cluster, const Objective& objective,
                         const hash::KWiseFamily& family,
                         const SelectionOptions& options);

}  // namespace dmpc::derand
