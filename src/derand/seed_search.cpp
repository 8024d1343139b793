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

/// Model-section registry counters for one seed search. Charged once per
/// search from the orchestrating thread (never inside a recoverable body
/// and never from executor workers), so the totals are deterministic across
/// thread counts and fault plans — golden by the same argument as the trace
/// args they mirror. `derand/batches` and the batch stats count every batch
/// the ledger charged, an exhausted search's too; `derand/searches`,
/// `derand/candidate_seeds` and the trials histogram count committed
/// searches only (`committed` set). The histogram has fixed power-of-four
/// bounds so its serialization is value-independent.
void record_search(const SearchResult& result, const BatchStats& stats,
                   bool committed) {
  auto& registry = obs::MetricsRegistry::current();
  registry.counter("derand/batches").add(result.batches);
  record_batch_stats(stats);
  if (!committed) return;
  registry.counter("derand/searches").add(1);
  registry.counter("derand/candidate_seeds").add(result.trials);
  registry
      .histogram("derand/trials_per_search",
                 {1, 4, 16, 64, 256, 1024, 4096, 16384})
      .observe(result.trials);
}
/// Charge one evaluation batch of `k` candidates over `terms` local terms:
/// local evaluation is free; aggregating k partial sums up a fan-in-S tree
/// and broadcasting the verdict back is 2 * tree_depth rounds.
void charge_batch(mpc::Cluster& cluster, std::uint64_t terms, std::uint64_t k,
                  const std::string& label) {
  const std::uint64_t depth =
      cluster.tree_depth(std::max<std::uint64_t>(terms, 2));
  cluster.charge(label, 2 * depth, k * cluster.machines());
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

SeedWalk::SeedWalk(std::uint64_t seed_count, std::uint64_t base,
                   std::uint64_t stride)
    : count_(seed_count),
      base_(base % seed_count),
      stride_(effective_stride(stride, seed_count)) {}

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
  const SeedWalk walk(seed_count, options.seed_base, options.seed_stride);
  BatchStats batch_stats;
  while (next < limit) {
    const std::uint64_t batch_end = std::min(limit, next + k);
    charge_batch(cluster, objective.term_count(), batch_end - next,
                 options.label);
    ++result.batches;
    batch_stats += BatchStats::of(batch_end - next);
    // The model evaluates the charged batch on the machines at once; the
    // host walks it in enumeration order, one seed at a time with that
    // seed's work spread over the executor, and stops at the first
    // qualifying trial. It evaluates exactly the `trials` candidates it
    // reports, for every thread count.
    for (std::uint64_t t = next; t < batch_end; ++t) {
      const std::uint64_t seed = walk.at(t);
      const std::optional<double> value =
          evaluate_seed(cluster.executor(), objective, seed, options.threshold);
      if (value) {
        result.trials = t + 1;
        result.seed = seed;
        result.value = *value;
        span.arg("candidate_seeds", result.trials);
        span.arg("batches", result.batches);
        span.arg("committed_seed", result.seed);
        record_search(result, batch_stats, /*committed=*/true);
        return result;
      }
    }
    result.trials = batch_end;
    next = batch_end;
  }
  record_search(result, batch_stats, /*committed=*/false);
  return std::nullopt;
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
  // Decorrelate committed priority functions across calls (see SeedWalk).
  const SeedWalk walk = SeedWalk::scrambled(seed_count, options.salt);
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
      seeds[i] = walk.at(best.trials + i);
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

}  // namespace dmpc::derand
