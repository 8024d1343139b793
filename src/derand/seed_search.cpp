#include "derand/seed_search.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "derand/cond_expect.hpp"
#include "hash/seed.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace dmpc::derand {

namespace {

/// Model-section registry counters for seed searches. Charged once per
/// completed search from the orchestrating thread (never inside a
/// recoverable body and never from executor workers), so the totals are
/// deterministic across thread counts and fault plans — golden by the same
/// argument as the trace args they mirror. The trials histogram has fixed
/// power-of-four bounds so its serialization is value-independent.
struct SearchMetrics {
  obs::Counter* searches;
  obs::Counter* candidates;
  obs::Counter* batches;
  obs::Histogram* trials;
};

SearchMetrics& search_metrics() {
  static SearchMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::global();
    return SearchMetrics{
        &registry.counter("derand/searches"),
        &registry.counter("derand/candidate_seeds"),
        &registry.counter("derand/batches"),
        &registry.histogram("derand/trials_per_search",
                            {1, 4, 16, 64, 256, 1024, 4096, 16384}),
    };
  }();
  return metrics;
}

void record_search(const SearchResult& result) {
  SearchMetrics& metrics = search_metrics();
  metrics.searches->add(1);
  metrics.candidates->add(result.trials);
  metrics.batches->add(result.batches);
  metrics.trials->observe(result.trials);
}
/// Charge one evaluation batch of `k` candidates over `terms` local terms:
/// local evaluation is free; aggregating k partial sums up a fan-in-S tree
/// and broadcasting the verdict back is 2 * tree_depth rounds.
void charge_batch(mpc::Cluster& cluster, std::uint64_t terms, std::uint64_t k,
                  const std::string& label) {
  const std::uint64_t depth =
      cluster.tree_depth(std::max<std::uint64_t>(terms, 2));
  cluster.charge_recoverable(2 * depth, label);
  cluster.metrics().add_communication(k * cluster.machines(), label);
}
}  // namespace

std::uint64_t effective_stride(std::uint64_t stride, std::uint64_t seed_count) {
  DMPC_CHECK(seed_count >= 1);
  if (seed_count == 1) return 1;
  std::uint64_t s = stride % seed_count;
  if (s == 0) s = 1;
  // Walk forward (wrapping, skipping 0) to the nearest stride coprime to the
  // family size. Strides that are already coprime — every caller passing a
  // large odd stride against a power-of-two family — are returned unchanged.
  while (std::gcd(s, seed_count) != 1) {
    ++s;
    if (s == seed_count) s = 1;
  }
  return s;
}

std::optional<SearchResult> try_find_seed(mpc::Cluster& cluster,
                                          const Objective& objective,
                                          std::uint64_t seed_count,
                                          const SearchOptions& options) {
  DMPC_CHECK(seed_count >= 1);
  obs::HostScope host_scope("derand/seed_search", cluster.trace());
  obs::Span span(cluster.trace(), options.label);
  const std::uint64_t k = std::max<std::uint64_t>(
      1, std::min(options.candidates_per_batch, cluster.space()));
  SearchResult result;
  std::uint64_t next = 0;
  const std::uint64_t limit = std::min(seed_count, options.max_trials);
  const std::uint64_t stride = effective_stride(options.seed_stride, seed_count);
  auto seed_at = [&](std::uint64_t t) {
    const __uint128_t pos = static_cast<__uint128_t>(t) * stride +
                            options.seed_base % seed_count;
    return static_cast<std::uint64_t>(pos % seed_count);
  };
  std::vector<std::uint64_t> seeds;
  std::vector<double> values;
  BatchStats batch_stats;
  while (next < limit) {
    const std::uint64_t batch_end = std::min(limit, next + k);
    charge_batch(cluster, objective.term_count(), batch_end - next,
                 options.label);
    ++result.batches;
    // Evaluate the whole batch through the range oracle (host-parallel in
    // fixed-width chunks; the objective is pure), then commit the first
    // qualifying trial in enumeration order — identical to the serial
    // search for every thread count and dispatch path. `trials` counts
    // evaluations up to and including the committed one, matching the
    // serial short-circuit count even though later candidates were also
    // evaluated.
    const std::uint64_t width = batch_end - next;
    seeds.resize(width);
    for (std::uint64_t i = 0; i < width; ++i) seeds[i] = seed_at(next + i);
    values.assign(width, 0.0);
    batch_stats += batch_evaluate(cluster.executor(), objective, seeds.data(),
                                  width, values.data());
    for (std::uint64_t t = next; t < batch_end; ++t) {
      const double value = values[t - next];
      if (value >= options.threshold) {
        result.trials = t + 1;
        result.seed = seed_at(t);
        result.value = value;
        span.arg("candidate_seeds", result.trials);
        span.arg("batches", result.batches);
        span.arg("committed_seed", result.seed);
        record_search(result);
        record_batch_stats(batch_stats);
        return result;
      }
    }
    result.trials = batch_end;
    next = batch_end;
  }
  return std::nullopt;
}

SearchResult find_seed(mpc::Cluster& cluster, const Objective& objective,
                       std::uint64_t seed_count, const SearchOptions& options) {
  const auto result = try_find_seed(cluster, objective, seed_count, options);
  DMPC_CHECK_MSG(result.has_value(),
                 options.label << ": no seed met threshold "
                               << options.threshold << " within "
                               << std::min(seed_count, options.max_trials)
                               << " candidates — guarantee violated");
  return *result;
}

SearchResult select_seed(mpc::Cluster& cluster, const Objective& objective,
                         const hash::KWiseFamily& family,
                         const SelectionOptions& options) {
  SearchResult best;
  const std::uint64_t seed_count = family.seed_count();
  if (options.mode == SelectionMode::kConditionalExpectation) {
    // Fix the two coefficients of the pairwise seed chunk by chunk with
    // exact conditional expectations. The oracle enumerates suffixes, so
    // keep the family small.
    DMPC_CHECK_MSG(seed_count <= (1ULL << 22),
                   "conditional-expectation selection needs a small "
                   "instance (family of <= 2^22 seeds)");
    const hash::SeedSpace space({family.p(), family.p()});
    ExhaustiveConditional conditional(objective, space);
    FixOptions fix_options;
    fix_options.label = options.label + "_ce";
    const FixResult fixed = fix_seed(cluster, conditional, space, fix_options);
    best.seed = fixed.seed;
    best.value = fixed.value;
    best.trials = space.size();
    return best;
  }
  obs::HostScope host_scope("derand/selection", cluster.trace());
  obs::Span span(cluster.trace(), options.label);
  // Decorrelate committed priority functions across calls: trial k of salt
  // s evaluates a stride-scrambled walk over the family (same rationale as
  // SearchOptions::seed_stride).
  auto seed_at = [&](std::uint64_t k) {
    const __uint128_t pos =
        static_cast<__uint128_t>(k) * 0xBF58476D1CE4E5B9ULL +
        options.salt * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::uint64_t>(pos % seed_count);
  };
  double t = options.threshold;
  std::vector<std::uint64_t> seeds;
  std::vector<double> values;
  BatchStats batch_stats;
  while (true) {
    const std::uint64_t budget =
        std::min<std::uint64_t>(options.batch, seed_count - best.trials);
    DMPC_CHECK_MSG(budget > 0, options.label
                                   << ": selection seed space exhausted — "
                                      "guarantee violated");
    charge_batch(cluster, objective.term_count(), budget, options.label);
    ++best.batches;
    // Batch evaluation through the range oracle (the objective is pure),
    // then a serial lowest-trial-first scan with a strict improvement test:
    // the committed seed is identical for every thread count and grain.
    seeds.resize(budget);
    for (std::uint64_t i = 0; i < budget; ++i) {
      seeds[i] = seed_at(best.trials + i);
    }
    values.assign(budget, 0.0);
    batch_stats += batch_evaluate(cluster.executor(), objective, seeds.data(),
                                  budget, values.data(), options.grain);
    for (std::uint64_t i = 0; i < budget; ++i) {
      if (best.trials + i == 0 || values[i] > best.value) {
        best.seed = seeds[i];
        best.value = values[i];
      }
    }
    best.trials += budget;
    // A zero-progress seed never commits, however far t has halved. For
    // the matching pipeline the guard is implied: the Corollary-8 check in
    // select_matching_good_set makes b_degree_mass > 0, so t > 0.
    if (best.value >= t && best.value > 0) {
      span.arg("candidate_seeds", best.trials);
      span.arg("committed_seed", best.seed);
      record_batch_stats(batch_stats);
      return best;
    }
    if (best.trials % kTrialsPerThreshold == 0) t /= 2.0;
  }
}

SearchResult find_best_seed(mpc::Cluster& cluster, const Objective& objective,
                            std::uint64_t seed_count, std::uint64_t budget,
                            const std::string& label) {
  DMPC_CHECK(seed_count >= 1 && budget >= 1);
  obs::HostScope host_scope("derand/seed_search", cluster.trace());
  obs::Span span(cluster.trace(), label);
  const std::uint64_t limit = std::min(seed_count, budget);
  const std::uint64_t k =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(limit, cluster.space()));
  SearchResult result;
  bool have = false;
  std::uint64_t next = 0;
  std::vector<std::uint64_t> seeds;
  std::vector<double> values;
  BatchStats batch_stats;
  while (next < limit) {
    const std::uint64_t batch_end = std::min(limit, next + k);
    charge_batch(cluster, objective.term_count(), batch_end - next, label);
    ++result.batches;
    // Host-parallel evaluation through the range oracle, then a serial
    // lowest-seed-first scan with a strict improvement test: ties commit
    // the lowest seed, exactly like the serial search.
    const std::uint64_t width = batch_end - next;
    seeds.resize(width);
    for (std::uint64_t i = 0; i < width; ++i) seeds[i] = next + i;
    values.assign(width, 0.0);
    batch_stats += batch_evaluate(cluster.executor(), objective, seeds.data(),
                                  width, values.data());
    for (std::uint64_t seed = next; seed < batch_end; ++seed) {
      ++result.trials;
      const double value = values[seed - next];
      if (!have || value > result.value) {
        have = true;
        result.seed = seed;
        result.value = value;
      }
    }
    next = batch_end;
  }
  span.arg("candidate_seeds", result.trials);
  span.arg("batches", result.batches);
  span.arg("committed_seed", result.seed);
  record_search(result);
  record_batch_stats(batch_stats);
  return result;
}

}  // namespace dmpc::derand
