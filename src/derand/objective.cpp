#include "derand/objective.hpp"

#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "support/check.hpp"

namespace dmpc::derand {

namespace {

/// Per-thread scratch for the RangeObjective sweep: the raw-value array and
/// the contiguous-seed staging buffer. Capacity persists across seeds and
/// objectives, so the steady-state sweep allocates nothing.
struct SweepScratch {
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> seeds;
};

SweepScratch& sweep_scratch() {
  thread_local SweepScratch scratch;
  return scratch;
}

}  // namespace

void Objective::evaluate_batch(std::uint64_t seed_lo, std::uint64_t count,
                               double* out) const {
  SweepScratch& scratch = sweep_scratch();
  scratch.seeds.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) scratch.seeds[i] = seed_lo + i;
  evaluate_batch(scratch.seeds.data(), count, out);
}

void RangeObjective::bind_points(const hash::KWiseFamily& family,
                                 const std::uint64_t* points,
                                 std::size_t count) {
  family_ = &family;
  table_.build(family.modulus(), points, count, family.k());
}

const hash::KWiseFamily& RangeObjective::family() const {
  DMPC_CHECK_MSG(family_ != nullptr, "RangeObjective points not bound");
  return *family_;
}

double RangeObjective::evaluate(std::uint64_t seed) const {
  DMPC_CHECK_MSG(family_ != nullptr, "RangeObjective points not bound");
  SweepScratch& scratch = sweep_scratch();
  scratch.values.resize(table_.count());
  std::uint64_t coeffs[16];
  family_->coefficients_into(seed, coeffs);
  table_.eval(coeffs, scratch.values.data());
  prepare_seed(seed, scratch.values.data());
  return accumulate_terms(0, range_count(), seed, scratch.values.data());
}

void RangeObjective::evaluate_batch(const std::uint64_t* seeds,
                                    std::size_t count, double* out) const {
  for (std::size_t i = 0; i < count; ++i) out[i] = evaluate(seeds[i]);
}

BatchStats batch_evaluate(const exec::Executor& executor,
                          const Objective& objective,
                          const std::uint64_t* seeds, std::size_t count,
                          double* out, std::size_t grain) {
  BatchStats stats;
  if (count == 0) return stats;
  const std::size_t chunks = (count + kBatchChunk - 1) / kBatchChunk;
  stats.calls = chunks;
  stats.lanes = count;
  // Chunks are the accounting unit only; the host dispatches `grain` seeds
  // per task (each seed is O(n) work, so the default of one lets a one-chunk
  // selection batch spread over the pool). out[i] depends only on seeds[i],
  // so results and the stats above are thread-count and grain invariant.
  obs::HostScope host_scope("derand/batch_eval");
  executor.for_each(
      0, count,
      [&](std::uint64_t i) { out[i] = objective.evaluate(seeds[i]); }, grain);
  return stats;
}

void record_batch_stats(const BatchStats& stats) {
  // Model-section registry counters (see SearchMetrics in seed_search.cpp
  // for the charging discipline): once per completed engine run, from the
  // orchestrating thread, never inside a recoverable body.
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter* calls = &registry.counter("derand/batch_calls");
  static obs::Counter* lanes = &registry.counter("derand/lanes_used");
  calls->add(stats.calls);
  lanes->add(stats.lanes);
}

}  // namespace dmpc::derand
