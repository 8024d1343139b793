// Unit tests for the derandomization engines: threshold seed search and the
// method of conditional expectations (exact-enumeration oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "derand/cond_expect.hpp"
#include "derand/objective.hpp"
#include "derand/seed_search.hpp"
#include "hash/kwise.hpp"
#include "hash/seed.hpp"
#include "mpc/cluster.hpp"
#include "support/check.hpp"

namespace dmpc::derand {
namespace {

mpc::Cluster make_cluster() {
  mpc::ClusterConfig config;
  config.machine_space = 256;
  config.num_machines = 64;
  return mpc::Cluster(config);
}

/// Toy objective: q(seed) = number of 1-bits in the low 8 bits of the seed.
class PopcountObjective final : public Objective {
 public:
  double evaluate(std::uint64_t seed) const override {
    return static_cast<double>(__builtin_popcountll(seed & 0xFF));
  }
  std::uint64_t term_count() const override { return 8; }
};

TEST(SeedSearch, FindsFirstSeedMeetingThreshold) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 3.0;
  const auto result = find_seed(cluster, objective, 1 << 8, options);
  EXPECT_EQ(result.seed, 7u);  // first seed with >= 3 bits set
  EXPECT_DOUBLE_EQ(result.value, 3.0);
  EXPECT_EQ(result.trials, 8u);
  EXPECT_GT(cluster.metrics().rounds(), 0u);
}

TEST(SeedSearch, ThresholdZeroCommitsImmediately) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 0.0;
  const auto result = find_seed(cluster, objective, 1 << 8, options);
  EXPECT_EQ(result.seed, 0u);
  EXPECT_EQ(result.trials, 1u);
}

TEST(SeedSearch, ExhaustionThrows) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 9.0;  // unreachable: popcount of 8 bits <= 8
  EXPECT_THROW(find_seed(cluster, objective, 1 << 8, options), CheckFailure);
}

TEST(SeedSearch, MaxTrialsRespected) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 8.0;  // only seed 255 qualifies
  options.max_trials = 10;
  EXPECT_THROW(find_seed(cluster, objective, 1 << 8, options), CheckFailure);
}

TEST(SeedSearch, BatchRoundChargesAreConstantPerBatch) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 8.0;
  options.candidates_per_batch = 256;
  const auto result = find_seed(cluster, objective, 1 << 8, options);
  EXPECT_EQ(result.seed, 255u);
  EXPECT_EQ(result.batches, 1u);  // one O(1)-round batch covered all
}

TEST(SeedSearch, FindBestSeed) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  const auto result = find_best_seed(cluster, objective, 1 << 8, 1 << 8);
  EXPECT_EQ(result.value, 8.0);
  EXPECT_EQ(result.seed, 255u);
  EXPECT_EQ(result.trials, 256u);
}

TEST(SeedSearch, FindBestSeedWithinBudget) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  const auto result = find_best_seed(cluster, objective, 1 << 8, 8);
  EXPECT_EQ(result.trials, 8u);
  EXPECT_DOUBLE_EQ(result.value, 3.0);  // best among 0..7 is 7 -> 3 bits
}

// --- Stride coverage property. ---

TEST(SeedSearch, EffectiveStrideIsAlwaysCoprime) {
  // Coprime strides pass through unchanged (mod seed_count).
  EXPECT_EQ(effective_stride(1, 256), 1u);
  EXPECT_EQ(effective_stride(3, 256), 3u);
  EXPECT_EQ(effective_stride(7919, 1 << 16), 7919u);
  // A multiple of seed_count degenerates to stride 0; it must become 1,
  // not silently re-evaluate seed `base` forever.
  EXPECT_EQ(effective_stride(256, 256), 1u);
  EXPECT_EQ(effective_stride(512, 256), 1u);
  // Non-coprime (but nonzero mod) strides get bumped to the next coprime
  // value instead of being kept — the old bug class.
  EXPECT_EQ(effective_stride(4, 256), 5u);
  EXPECT_EQ(effective_stride(6, 15), 7u);
  // Degenerate family of one seed.
  EXPECT_EQ(effective_stride(17, 1), 1u);
  // Property check across a grid: the result is always coprime, so the
  // strided walk is a bijection on [0, seed_count).
  for (std::uint64_t count : {2ull, 15ull, 16ull, 97ull, 360ull}) {
    for (std::uint64_t stride = 0; stride <= 2 * count + 1; ++stride) {
      const auto s = effective_stride(stride, count);
      ASSERT_GE(s, 1u);
      ASSERT_LT(s, std::max<std::uint64_t>(count, 2));
      ASSERT_EQ(std::gcd(s, count), 1u)
          << "stride=" << stride << " count=" << count;
    }
  }
}

TEST(SeedSearch, StridedWalkVisitsEveryResidue) {
  // Directly verify the coverage property find_seed's termination guarantee
  // rests on: for any requested stride, seed t -> (base + t*s) mod count
  // visits every residue exactly once over count trials.
  const std::uint64_t count = 360;  // many divisors -> many bad raw strides
  for (std::uint64_t stride : {1ull, 2ull, 90ull, 360ull, 719ull}) {
    const auto s = effective_stride(stride, count);
    std::vector<bool> seen(count, false);
    for (std::uint64_t t = 0; t < count; ++t) {
      const std::uint64_t seed = (11 + t * s) % count;
      ASSERT_FALSE(seen[seed]) << "stride=" << stride;
      seen[seed] = true;
    }
  }
}

TEST(SeedSearch, NonCoprimeStrideStillFindsIsolatedSeed) {
  // Only seed 255 meets the threshold. A raw stride of 4 from base 0 would
  // only ever visit even seeds (gcd(4, 256) = 4) and falsely exhaust; the
  // effective stride must reach it.
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 8.0;
  options.seed_base = 0;
  options.seed_stride = 4;
  const auto result = find_seed(cluster, objective, 1 << 8, options);
  EXPECT_EQ(result.seed, 255u);
  EXPECT_DOUBLE_EQ(result.value, 8.0);
}

TEST(SeedSearch, StrideMultipleOfCountDoesNotSpinOnBase) {
  // stride % seed_count == 0 previously walked seed `base` max_trials times.
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 8.0;
  options.seed_base = 3;
  options.seed_stride = 256;  // == seed_count
  const auto result = find_seed(cluster, objective, 1 << 8, options);
  EXPECT_EQ(result.seed, 255u);
  EXPECT_LE(result.trials, 256u);
}

// --- The pipelines' selection commit (select_seed). ---

/// Every seed scores the same value c.
class ConstantObjective final : public Objective {
 public:
  explicit ConstantObjective(double c) : c_(c) {}
  double evaluate(std::uint64_t /*seed*/) const override { return c_; }
  std::uint64_t term_count() const override { return 4; }

 private:
  double c_;
};

SearchResult select_constant(std::uint32_t threads, std::uint64_t domain,
                             double threshold) {
  mpc::ClusterConfig config;
  config.machine_space = 256;
  config.num_machines = 64;
  mpc::ClusterSetup setup;
  setup.threads = threads;
  mpc::Cluster cluster(config, setup);
  const hash::KWiseFamily family(domain, domain, /*k=*/2);
  ConstantObjective objective(1.5);
  SelectionOptions options;
  options.label = "test/selection";
  options.threshold = threshold;
  options.batch = 16;
  options.salt = 3;
  return select_seed(cluster, objective, family, options);
}

TEST(SelectSeed, ThresholdHalvesEveryTrialsPerThreshold) {
  // Threshold 4c: 256 trials at 4c, 256 at 2c, then the first batch at c
  // commits. Strict improvement keeps the first trial's seed.
  static_assert(kTrialsPerThreshold == 256);
  const hash::KWiseFamily family(64, 64, /*k=*/2);
  const std::uint64_t first_seed =
      static_cast<std::uint64_t>(3 * 0x9E3779B97F4A7C15ULL) %
      family.seed_count();
  for (const std::uint32_t threads : {1u, 4u}) {
    const SearchResult result = select_constant(threads, 64, 4 * 1.5);
    EXPECT_EQ(result.trials, 528u) << "threads=" << threads;
    EXPECT_EQ(result.seed, first_seed) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(result.value, 1.5);
  }
}

TEST(SelectSeed, ExhaustionThrowsLabelledCheckFailure) {
  // A family smaller than kTrialsPerThreshold never halves an unreachable
  // threshold, so the walk runs out of seeds.
  try {
    select_constant(1, /*domain=*/4, /*threshold=*/10.0);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("test/selection"), std::string::npos)
        << e.what();
  }
}

// --- Method of conditional expectations on a real hash family. ---
//
// Objective over the pairwise family [p]x[p], p = 13: q(h) = number of
// inputs x in {0..5} with h.raw(x) < 6. E[q] = 6 * 6/13 ~ 2.77, so the
// method must find a seed with q >= ceil(E[q]) ... we use guarantee
// floor(E[q]) to keep it safely below the true expectation.
class HashCountObjective final : public Objective {
 public:
  explicit HashCountObjective(const hash::KWiseFamily& family)
      : family_(&family) {}

  double evaluate(std::uint64_t seed) const override {
    const auto fn = family_->at(seed);
    double q = 0;
    for (std::uint64_t x = 0; x < 6; ++x) {
      if (fn.raw(x) < 6) q += 1.0;
    }
    return q;
  }
  std::uint64_t term_count() const override { return 6; }

 private:
  const hash::KWiseFamily* family_;
};

TEST(CondExpect, ExhaustiveOracleMatchesDirectAverage) {
  hash::KWiseFamily family(13, 13, 2, 13);
  HashCountObjective objective(family);
  const hash::SeedSpace space({13, 13});
  ExhaustiveConditional conditional(objective, space);

  // Prefix {} with candidate digit 4 must equal the average over the 13
  // seeds whose most-significant digit is 4.
  double direct = 0;
  for (std::uint64_t s = 0; s < 13; ++s) {
    direct += objective.evaluate(4 * 13 + s);
  }
  direct /= 13.0;
  EXPECT_NEAR(conditional.conditional_expectation({}, 4), direct, 1e-12);

  // Fully-fixed prefix: conditional expectation equals the point value.
  EXPECT_NEAR(conditional.conditional_expectation({4}, 9),
              objective.evaluate(4 * 13 + 9), 1e-12);
}

TEST(CondExpect, FixSeedAchievesExpectation) {
  auto cluster = make_cluster();
  hash::KWiseFamily family(13, 13, 2, 13);
  HashCountObjective objective(family);
  const hash::SeedSpace space({13, 13});
  ExhaustiveConditional conditional(objective, space);

  // True mean over the family.
  double mean = 0;
  for (std::uint64_t s = 0; s < space.size(); ++s) {
    mean += objective.evaluate(s);
  }
  mean /= static_cast<double>(space.size());

  FixOptions options;
  options.guarantee = mean;  // the method can never do worse than the mean
  const auto result = fix_seed(cluster, conditional, space, options);
  EXPECT_GE(result.value, mean);
  EXPECT_EQ(result.chunks, 2u);
  EXPECT_LT(result.seed, space.size());
  EXPECT_GT(cluster.metrics().rounds(), 0u);
}

TEST(CondExpect, GreedyChunkChoiceIsOptimalPerStep) {
  auto cluster = make_cluster();
  hash::KWiseFamily family(13, 13, 2, 13);
  HashCountObjective objective(family);
  const hash::SeedSpace space({13, 13});
  ExhaustiveConditional conditional(objective, space);
  FixOptions options;
  options.guarantee = 0.0;
  const auto result = fix_seed(cluster, conditional, space, options);
  // The chosen first digit maximizes the conditional expectation.
  const auto digits = space.decompose(result.seed);
  const double chosen = conditional.conditional_expectation({}, digits[0]);
  for (std::uint64_t d = 0; d < 13; ++d) {
    EXPECT_GE(chosen + 1e-12, conditional.conditional_expectation({}, d));
  }
}

TEST(CondExpect, InconsistentGuaranteeThrows) {
  auto cluster = make_cluster();
  hash::KWiseFamily family(13, 13, 2, 13);
  HashCountObjective objective(family);
  const hash::SeedSpace space({13, 13});
  ExhaustiveConditional conditional(objective, space);
  FixOptions options;
  options.guarantee = 100.0;  // impossible: q <= 6
  EXPECT_THROW(fix_seed(cluster, conditional, space, options), CheckFailure);
}

// ---- Batched evaluation (range-based Objective API) ----

/// Counts how the engine drives the batch entry points: an objective that
/// does NOT override evaluate_batch exercises the default scalar fallback.
class CountingObjective final : public Objective {
 public:
  double evaluate(std::uint64_t seed) const override {
    ++scalar_calls;
    return static_cast<double>(seed % 17);
  }
  std::uint64_t term_count() const override { return 1; }
  mutable std::uint64_t scalar_calls = 0;
};

TEST(BatchEvaluate, DefaultFallbackMatchesScalarEvaluate) {
  CountingObjective objective;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 37; ++s) seeds.push_back(s * 3 + 1);
  std::vector<double> batched(seeds.size());
  objective.evaluate_batch(seeds.data(), seeds.size(), batched.data());
  EXPECT_EQ(objective.scalar_calls, seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(batched[i], static_cast<double>(seeds[i] % 17));
  }
}

TEST(BatchEvaluate, ContiguousOverloadMatchesExplicitSeeds) {
  CountingObjective objective;
  std::vector<double> a(25);
  objective.evaluate_batch(/*seed_lo=*/100, a.size(), a.data());
  std::vector<std::uint64_t> seeds(25);
  std::iota(seeds.begin(), seeds.end(), std::uint64_t{100});
  std::vector<double> b(25);
  objective.evaluate_batch(seeds.data(), seeds.size(), b.data());
  EXPECT_EQ(a, b);
}

/// Records which threads evaluated seeds. Each evaluation sleeps briefly so
/// idle pool workers get to claim per-seed tasks.
class ThreadRecordingObjective final : public Objective {
 public:
  double evaluate(std::uint64_t seed) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.insert(std::this_thread::get_id());
    return static_cast<double>(seed % 17);
  }
  std::uint64_t term_count() const override { return 1; }
  std::size_t distinct_threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::set<std::thread::id> threads_;
};

TEST(BatchEvaluate, ExecutorSweepChunksDeterministically) {
  // batch_evaluate accounts in fixed kBatchChunk chunks regardless of the
  // executor, so BatchStats (and therefore the registry counters) are
  // thread-count invariant. Host dispatch is per seed, so even a one-chunk
  // batch spreads over the pool; stats and outputs must not move.
  exec::Executor serial = exec::Executor::serial();
  exec::Executor parallel = exec::Executor::with_threads(4);
  for (const std::size_t count : {3 * kBatchChunk + 5, kBatchChunk,
                                  std::size_t{1}}) {
    SCOPED_TRACE(count);
    std::vector<std::uint64_t> seeds(count);
    std::iota(seeds.begin(), seeds.end(), std::uint64_t{7});
    ThreadRecordingObjective serial_objective;
    std::vector<double> serial_out(count);
    const auto serial_stats = batch_evaluate(
        serial, serial_objective, seeds.data(), count, serial_out.data());
    EXPECT_EQ(serial_stats.calls, (count + kBatchChunk - 1) / kBatchChunk);
    EXPECT_EQ(serial_stats.lanes, count);
    ThreadRecordingObjective parallel_objective;
    std::vector<double> parallel_out(count);
    const auto parallel_stats = batch_evaluate(
        parallel, parallel_objective, seeds.data(), count, parallel_out.data());
    EXPECT_EQ(parallel_stats.calls, serial_stats.calls);
    EXPECT_EQ(parallel_stats.lanes, serial_stats.lanes);
    EXPECT_EQ(parallel_out, serial_out);
    if (count == kBatchChunk) {
      // One chunk on a 4-thread pool: its seeds spread over several threads.
      EXPECT_GT(parallel_objective.distinct_threads(), 1u);
    }
    // A chunk-wide grain changes only which thread runs a seed.
    ThreadRecordingObjective chunked_objective;
    std::vector<double> chunked_out(count);
    const auto chunked_stats =
        batch_evaluate(parallel, chunked_objective, seeds.data(), count,
                       chunked_out.data(), /*grain=*/kBatchChunk);
    EXPECT_EQ(chunked_stats.calls, serial_stats.calls);
    EXPECT_EQ(chunked_stats.lanes, serial_stats.lanes);
    EXPECT_EQ(chunked_out, serial_out);
    if (count <= kBatchChunk) {
      // At most one grain: the calling thread evaluates every seed.
      EXPECT_EQ(chunked_objective.distinct_threads(), 1u);
    }
  }
}

TEST(BatchEvaluate, EngineOptionsShareLabelAndBudgetFields) {
  // SearchOptions and FixOptions consolidate label/batch/trial budgets in
  // derand::EngineOptions; the defaults differ only in the label.
  SearchOptions search;
  FixOptions fix;
  EXPECT_EQ(search.label, "seed_search");
  EXPECT_EQ(fix.label, "cond_expect");
  EXPECT_EQ(search.candidates_per_batch, fix.candidates_per_batch);
  EXPECT_EQ(search.max_trials, fix.max_trials);
  EngineOptions& base = search;
  base.label = "custom";
  EXPECT_EQ(search.label, "custom");
}

}  // namespace
}  // namespace dmpc::derand
