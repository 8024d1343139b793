// Unit tests for the derandomization engines: threshold seed search and the
// method of conditional expectations (exact-enumeration oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <optional>
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
#include "obs/metrics_registry.hpp"
#include "support/check.hpp"

namespace dmpc::derand {
namespace {

mpc::Cluster make_cluster(std::uint32_t threads = 1) {
  mpc::ClusterConfig config;
  config.machine_space = 256;
  config.num_machines = 64;
  mpc::ClusterSetup setup;
  setup.threads = threads;
  return mpc::Cluster(config, setup);
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
  const auto result = try_find_seed(cluster, objective, 1 << 8, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->seed, 7u);  // first seed with >= 3 bits set
  EXPECT_DOUBLE_EQ(result->value, 3.0);
  EXPECT_EQ(result->trials, 8u);
  EXPECT_GT(cluster.metrics().rounds(), 0u);
}

TEST(SeedSearch, ThresholdZeroCommitsImmediately) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 0.0;
  const auto result = try_find_seed(cluster, objective, 1 << 8, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->seed, 0u);
  EXPECT_EQ(result->trials, 1u);
}

TEST(SeedSearch, ExhaustionReturnsNullopt) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 9.0;  // unreachable: popcount of 8 bits <= 8
  EXPECT_FALSE(try_find_seed(cluster, objective, 1 << 8, options).has_value());
}

TEST(SeedSearch, MaxTrialsRespected) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 8.0;  // only seed 255 qualifies
  options.max_trials = 10;
  EXPECT_FALSE(try_find_seed(cluster, objective, 1 << 8, options).has_value());
}

TEST(SeedSearch, BatchRoundChargesAreConstantPerBatch) {
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 8.0;
  options.candidates_per_batch = 256;
  const auto result = try_find_seed(cluster, objective, 1 << 8, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->seed, 255u);
  EXPECT_EQ(result->batches, 1u);  // one O(1)-round batch covered all
}

TEST(SeedSearch, ExhaustedSearchCountsTheBatchesItCharged) {
  // One search exhausts the 256-seed family in four 64-seed batches, then
  // one commits in its first batch. The batch counters follow the ledger,
  // which charged all five; the search counters see the committed one only.
  obs::RegistryScope scope;
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.label = "test/ledger";
  options.candidates_per_batch = 64;
  options.threshold = 9.0;  // unreachable
  EXPECT_FALSE(try_find_seed(cluster, objective, 1 << 8, options).has_value());
  options.threshold = 3.0;
  const auto result = try_find_seed(cluster, objective, 1 << 8, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->trials, 8u);
  EXPECT_EQ(result->batches, 1u);
  const std::uint64_t rounds_per_batch =
      2 * cluster.tree_depth(objective.term_count());
  const std::uint64_t ledger_batches =
      cluster.metrics().by_label().at(options.label).rounds / rounds_per_batch;
  EXPECT_EQ(ledger_batches, 5u);
  const obs::MetricsSnapshot snap = scope.registry().snapshot();
  const auto value = [&](const std::string& name) -> std::uint64_t {
    const obs::MetricValue* m = snap.find(name);
    return m == nullptr ? 0 : static_cast<std::uint64_t>(m->value);
  };
  EXPECT_EQ(value("derand/batches"), ledger_batches);
  EXPECT_EQ(value("derand/lanes_used"), 5 * 64u);
  EXPECT_EQ(value("derand/batch_calls"), 5 * 64 / kBatchChunk);
  EXPECT_EQ(value("derand/searches"), 1u);
  EXPECT_EQ(value("derand/candidate_seeds"), 8u);
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
  // Directly verify the coverage property the engines' termination
  // guarantees rest on: for any requested stride, the SeedWalk visits every
  // residue exactly once over count trials.
  const std::uint64_t count = 360;  // many divisors -> many bad raw strides
  for (std::uint64_t stride : {1ull, 2ull, 90ull, 360ull, 719ull}) {
    const SeedWalk walk(count, /*base=*/11, stride);
    std::vector<bool> seen(count, false);
    for (std::uint64_t t = 0; t < count; ++t) {
      const std::uint64_t seed = walk.at(t);
      ASSERT_FALSE(seen[seed]) << "stride=" << stride;
      seen[seed] = true;
    }
  }
}

TEST(SeedSearch, ScrambledWalkVisitsEverySeed) {
  // Also where the family's prime (103) divides the scrambled stride.
  for (const std::uint64_t count : {103ull * 103ull, 101ull * 101ull, 256ull}) {
    const SeedWalk walk = SeedWalk::scrambled(count, /*salt=*/3);
    std::vector<bool> seen(count, false);
    for (std::uint64_t t = 0; t < count; ++t) {
      const std::uint64_t seed = walk.at(t);
      ASSERT_LT(seed, count);
      ASSERT_FALSE(seen[seed]) << "count=" << count << " t=" << t;
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
  const auto result = try_find_seed(cluster, objective, 1 << 8, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->seed, 255u);
  EXPECT_DOUBLE_EQ(result->value, 8.0);
}

TEST(SeedSearch, StrideMultipleOfCountDoesNotSpinOnBase) {
  // stride % seed_count == 0 previously walked seed `base` max_trials times.
  auto cluster = make_cluster();
  PopcountObjective objective;
  SearchOptions options;
  options.threshold = 8.0;
  options.seed_base = 3;
  options.seed_stride = 256;  // == seed_count
  const auto result = try_find_seed(cluster, objective, 1 << 8, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->seed, 255u);
  EXPECT_LE(result->trials, 256u);
}

// --- Lazy host evaluation of a charged batch. ---

/// q(seed) = seed, counting evaluations: at threshold 69 under the default
/// walk (trial t is seed t) the first qualifying seed is trial 70, the sixth
/// of the second 64-seed batch, and every later seed qualifies too.
/// evaluate_if_at_least spreads the eight terms, one of which carries the
/// seed, over the executor.
class IdentityObjective final : public Objective {
 public:
  double evaluate(std::uint64_t seed) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(seed);
  }
  std::optional<double> evaluate_if_at_least(
      const exec::Executor& executor, std::uint64_t seed,
      double threshold) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    const double value = executor.map_reduce(
        0, term_count(), 0.0,
        [&](std::uint64_t i) { return i == 0 ? static_cast<double>(seed) : 0.0; },
        [](double a, double b) { return a + b; }, /*grain=*/1);
    if (value >= threshold) return value;
    return std::nullopt;
  }
  std::uint64_t term_count() const override { return 8; }
  std::uint64_t calls() const { return calls_.load(); }

 private:
  mutable std::atomic<std::uint64_t> calls_{0};
};

TEST(SeedSearch, LazyEvaluationMatchesAtEveryThreadCount) {
  // The host evaluates a charged batch one seed at a time, each spread over
  // the executor, and stops at the first qualifying seed; the commit, the
  // seeds evaluated, the model charge and the golden counters must not see
  // the thread count.
  std::vector<mpc::LabelCost> ledgers;
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    obs::RegistryScope scope;
    auto cluster = make_cluster(threads);
    IdentityObjective objective;
    SearchOptions options;
    options.label = "test/lazy";
    options.threshold = 69.0;
    const auto result = try_find_seed(cluster, objective, 1 << 8, options);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->seed, 69u);
    EXPECT_DOUBLE_EQ(result->value, 69.0);
    EXPECT_EQ(result->trials, 70u);
    EXPECT_EQ(result->batches, 2u);
    // The first batch misses and is evaluated in full; the second stops at
    // its sixth seed.
    EXPECT_EQ(objective.calls(), 70u);
    const obs::MetricsSnapshot snap = scope.registry().snapshot();
    const auto value = [&](const std::string& name) -> std::uint64_t {
      const obs::MetricValue* m = snap.find(name);
      return m == nullptr ? 0 : static_cast<std::uint64_t>(m->value);
    };
    EXPECT_EQ(value("derand/evaluated_seeds"), objective.calls());
    // Both batches count at their charged width of 64.
    EXPECT_EQ(value("derand/batch_calls"), 2 * 64 / kBatchChunk);
    EXPECT_EQ(value("derand/lanes_used"), 64u + 64u);
    ledgers.push_back(cluster.metrics().by_label().at(options.label));
    EXPECT_EQ(ledgers.back(), ledgers.front());
  }
}

/// A conjunction of kTerms 0/1 terms that counts its term evaluations. Seed
/// s qualifies (every term holds) iff s >= 69 and s is a multiple of 3;
/// any other seed fails exactly one term, fail_at(s), and all the others
/// hold. evaluate_if_at_least rejects at the lowest failing term when the
/// threshold asks for every term, the way the sparsifier stages do.
class ConjunctionObjective final : public Objective {
 public:
  static constexpr std::uint64_t kTerms = 1024;
  static constexpr std::uint64_t kGrain = 16;

  static bool qualifies(std::uint64_t seed) {
    return seed >= 69 && seed % 3 == 0;
  }
  static std::uint64_t fail_at(std::uint64_t seed) {
    return qualifies(seed) ? kTerms : (seed * 37) % 101;
  }

  double evaluate(std::uint64_t seed) const override {
    double good = 0.0;
    for (std::uint64_t i = 0; i < kTerms; ++i) good += term(seed, i);
    return good;
  }
  std::optional<double> evaluate_if_at_least(
      const exec::Executor& executor, std::uint64_t seed,
      double threshold) const override {
    if (threshold < static_cast<double>(kTerms)) {
      return Objective::evaluate_if_at_least(executor, seed, threshold);
    }
    const std::uint64_t bad = executor.find_first(
        0, kTerms, [&](std::uint64_t i) { return term(seed, i) == 0; },
        kGrain);
    if (bad < kTerms) return std::nullopt;
    return static_cast<double>(kTerms);
  }
  std::uint64_t term_count() const override { return kTerms; }
  std::uint64_t term_evaluations() const { return terms_.load(); }

 private:
  int term(std::uint64_t seed, std::uint64_t i) const {
    terms_.fetch_add(1, std::memory_order_relaxed);
    return i == fail_at(seed) ? 0 : 1;
  }

  mutable std::atomic<std::uint64_t> terms_{0};
};

TEST(SeedSearch, ConjunctionRejectsASeedAtItsFirstFailingTerm) {
  // Trials 0..68 fail (seeds 0..68 under the default walk); trial 70 is
  // seed 69, the sixth seed of the second 64-seed batch, and qualifies.
  std::uint64_t scanned_one_thread = 0;
  for (std::uint64_t seed = 0; seed < 69; ++seed) {
    scanned_one_thread += ConjunctionObjective::fail_at(seed) + 1;
  }
  scanned_one_thread += ConjunctionObjective::kTerms;
  ASSERT_LT(scanned_one_thread, 70 * ConjunctionObjective::kTerms / 4);
  std::vector<mpc::LabelCost> ledgers;
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    obs::RegistryScope scope;
    auto cluster = make_cluster(threads);
    ConjunctionObjective objective;
    SearchOptions options;
    options.label = "test/conjunction";
    options.threshold = static_cast<double>(ConjunctionObjective::kTerms);
    const auto result = try_find_seed(cluster, objective, 1 << 8, options);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->seed, 69u);
    EXPECT_DOUBLE_EQ(result->value, options.threshold);
    EXPECT_EQ(result->trials, 70u);
    EXPECT_EQ(result->batches, 2u);
    // A rejected seed stops at its failing term. One thread scans each
    // rejected seed up to that term exactly; a pool may also run a few
    // chunks past it before it sees the find.
    if (threads == 1) {
      EXPECT_EQ(objective.term_evaluations(), scanned_one_thread);
    }
    EXPECT_LT(objective.term_evaluations(),
              result->trials * ConjunctionObjective::kTerms);
    const obs::MetricsSnapshot snap = scope.registry().snapshot();
    const obs::MetricValue* evaluated = snap.find("derand/evaluated_seeds");
    ASSERT_NE(evaluated, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(evaluated->value), result->trials);
    ledgers.push_back(cluster.metrics().by_label().at(options.label));
    EXPECT_EQ(ledgers.back(), ledgers.front());
  }
  // Below the all-terms threshold the hook counts every term.
  const exec::Executor serial;
  ConjunctionObjective objective;
  EXPECT_EQ(objective.evaluate_if_at_least(serial, 5, 1000.0),
            std::optional<double>(1023.0));
  EXPECT_EQ(objective.term_evaluations(), ConjunctionObjective::kTerms);
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

/// 1 off the 103-seed orbit {s : s = orbit (mod 103)}, 0 on it.
class OffOrbitObjective final : public Objective {
 public:
  explicit OffOrbitObjective(std::uint64_t orbit) : orbit_(orbit) {}
  double evaluate(std::uint64_t seed) const override {
    return seed % 103 == orbit_ ? 0.0 : 1.0;
  }
  std::uint64_t term_count() const override { return 4; }

 private:
  std::uint64_t orbit_;
};

TEST(SelectSeed, WalkCoversFamilyWhenPrimeDividesStride) {
  // The scrambled stride is 103 * 3541 * 344611 * 109699393. Over the
  // 103^2 seeds of KWiseFamily(103, 103, 2) that raw stride only revisits
  // the seeds congruent to the walk's base mod 103, where this objective is
  // zero; the coprime effective stride leaves that orbit on trial 1.
  static_assert(0xBF58476D1CE4E5B9ULL % 103 == 0);
  const hash::KWiseFamily family(103, 103, /*k=*/2);
  ASSERT_EQ(family.seed_count(), 103u * 103u);
  const std::uint64_t salt = 3;
  const std::uint64_t orbit = (salt * 0x9E3779B97F4A7C15ULL) % 103;
  OffOrbitObjective objective(orbit);
  auto cluster = make_cluster();
  SelectionOptions options;
  options.label = "test/walk";
  options.threshold = 1.0;
  options.salt = salt;
  const SearchResult result = select_seed(cluster, objective, family, options);
  EXPECT_DOUBLE_EQ(result.value, 1.0);
  EXPECT_NE(result.seed % 103, orbit);
  EXPECT_EQ(result.trials, options.batch);
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

// ---- Batched evaluation ----

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

}  // namespace
}  // namespace dmpc::derand
