#include "derand/objective.hpp"

#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "support/check.hpp"

namespace dmpc::derand {

namespace {

/// Per-thread raw-value array of the RangeObjective sweep. Capacity persists
/// across seeds and objectives, so the steady-state sweep allocates nothing.
std::vector<std::uint64_t>& sweep_values() {
  thread_local std::vector<std::uint64_t> values;
  return values;
}

}  // namespace

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

const std::uint64_t* RangeObjective::sweep(std::uint64_t seed) const {
  DMPC_CHECK_MSG(family_ != nullptr, "RangeObjective points not bound");
  std::vector<std::uint64_t>& values = sweep_values();
  values.resize(table_.count());
  std::uint64_t coeffs[16];
  family_->coefficients_into(seed, coeffs);
  table_.eval(coeffs, values.data());
  prepare_seed(seed, values.data());
  return values.data();
}

double RangeObjective::evaluate(std::uint64_t seed) const {
  return accumulate_terms(0, range_count(), seed, sweep(seed));
}

BatchStats BatchStats::of(std::uint64_t lanes) {
  return {(lanes + kBatchChunk - 1) / kBatchChunk, lanes};
}

BatchStats batch_evaluate(const exec::Executor& executor,
                          const Objective& objective,
                          const std::uint64_t* seeds, std::size_t count,
                          double* out, std::size_t grain) {
  if (count == 0) return {};
  // Chunks are the accounting unit only; the host dispatches `grain` seeds
  // per task (each seed is O(n) work, so the default of one lets a one-chunk
  // selection batch spread over the pool). out[i] depends only on seeds[i],
  // so results and the stats are thread-count and grain invariant.
  obs::HostScope host_scope("derand/batch_eval");
  obs::MetricsRegistry::current()
      .counter("derand/evaluated_seeds", obs::MetricSection::kHost)
      .add(count);
  executor.for_each(
      0, count,
      [&](std::uint64_t i) { out[i] = objective.evaluate(seeds[i]); }, grain);
  return BatchStats::of(count);
}

std::optional<double> evaluate_seed(const exec::Executor& executor,
                                    const Objective& objective,
                                    std::uint64_t seed, double threshold) {
  obs::HostScope host_scope("derand/batch_eval");
  obs::MetricsRegistry::current()
      .counter("derand/evaluated_seeds", obs::MetricSection::kHost)
      .add(1);
  return objective.evaluate_if_at_least(executor, seed, threshold);
}

void record_batch_stats(const BatchStats& stats) {
  // Model-section registry counters (see record_search in seed_search.cpp
  // for the charging discipline): once per completed engine run, from the
  // orchestrating thread, never inside a recoverable body.
  auto& registry = obs::MetricsRegistry::current();
  registry.counter("derand/batch_calls").add(stats.calls);
  registry.counter("derand/lanes_used").add(stats.lanes);
}

}  // namespace dmpc::derand
