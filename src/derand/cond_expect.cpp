#include "derand/cond_expect.hpp"

#include <algorithm>

#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace dmpc::derand {

FixResult fix_seed(mpc::Cluster& cluster, const ConditionalObjective& objective,
                   const hash::SeedSpace& space, const FixOptions& options) {
  std::vector<std::uint64_t> prefix;
  prefix.reserve(space.chunk_count());
  FixResult result;
  // The CE sweep dominates host cost (ROADMAP item 3): scope it so kHost
  // counters (wall/cpu/alloc) and opted-in trace counter events record it.
  obs::HostScope host_scope("derand/ce_sweep", cluster.trace());
  obs::Span span(cluster.trace(), options.label);
  std::uint64_t candidates_swept = 0;
  BatchStats batch_stats;
  for (unsigned chunk = 0; chunk < space.chunk_count(); ++chunk) {
    const std::uint64_t radix = space.radix(chunk);
    // Each chunk is one conditional-expectation sweep: every machine
    // evaluates its terms for all `radix` candidate digits.
    obs::Span chunk_span(cluster.trace(),
                         options.label + "/chunk" + std::to_string(chunk));
    chunk_span.arg("candidate_seeds", radix);
    candidates_swept += radix;
    // One chunk: every machine evaluates its conditional term for all
    // candidates; candidates aggregate in tree passes of width <= S (the
    // paper chunks the seed so radix = Theta(S); when a chunk's radix
    // exceeds S, the candidate table is swept in ceil(radix/S) waves), then
    // the winner is broadcast.
    const std::uint64_t waves =
        std::max<std::uint64_t>(1, (radix + cluster.space() - 1) / cluster.space());
    const std::uint64_t depth =
        cluster.tree_depth(std::max<std::uint64_t>(objective.term_count(), 2));
    cluster.check_load(std::min(radix, cluster.space()),
                       options.label + ": candidate table", options.label);
    cluster.charge(options.label, waves * 2 * depth + 1,
                   radix * cluster.machines());

    // Host-parallel sweep: the digit range is cut into fixed kBatchChunk
    // chunks (executor-invariant), one pool task each. The oracle is
    // const/pure, so chunks run concurrently; the argmax scan stays serial
    // with a strict improvement test, committing the lowest digit on ties —
    // identical to the serial sweep for every thread count.
    std::vector<double> values(radix, 0.0);
    batch_stats += BatchStats::of(radix);
    cluster.executor().for_each(
        0, radix,
        [&](std::uint64_t digit) {
          values[digit] = objective.conditional_expectation(prefix, digit);
        },
        kBatchChunk);
    double best_value = 0.0;
    std::uint64_t best_digit = 0;
    bool have = false;
    for (std::uint64_t digit = 0; digit < radix; ++digit) {
      const double value = values[digit];
      if (!have || value > best_value) {
        have = true;
        best_value = value;
        best_digit = digit;
      }
    }
    prefix.push_back(best_digit);
    chunk_span.arg("fixed_digit", best_digit);
    ++result.chunks;
  }
  DMPC_CHECK_MSG(candidates_swept <= kMaxSweptCandidates,
                 options.label << ": swept " << candidates_swept
                               << " candidates, over the cap "
                               << kMaxSweptCandidates
                               << " — seed space misconfigured");
  result.seed = space.compose(prefix);
  result.value = objective.evaluate(result.seed);
  // Model-section sweep counters; charged once per fix from the
  // orchestrating thread, mirroring the golden span args below.
  auto& registry = obs::MetricsRegistry::current();
  registry.counter("derand/ce_fixes").add(1);
  registry.counter("derand/ce_sweeps").add(result.chunks);
  registry.counter("derand/ce_candidates").add(candidates_swept);
  record_batch_stats(batch_stats);
  span.arg("candidate_seeds", candidates_swept);
  span.arg("chunks", result.chunks);
  span.arg("committed_seed", result.seed);
  span.arg("committed_value", result.value);
  DMPC_CHECK_MSG(
      result.value >= options.guarantee,
      options.label << ": committed seed achieves " << result.value
                    << " < guarantee " << options.guarantee
                    << " — conditional oracle inconsistent with objective");
  return result;
}

double ExhaustiveConditional::conditional_expectation(
    const std::vector<std::uint64_t>& prefix, std::uint64_t candidate) const {
  const auto fixed = static_cast<unsigned>(prefix.size());
  DMPC_CHECK(fixed < space_->chunk_count());
  const std::uint64_t suffixes = space_->suffix_size(fixed + 1);
  double total = 0.0;
  for (std::uint64_t s = 0; s < suffixes; ++s) {
    total += base_->evaluate(space_->assemble(prefix, candidate, s));
  }
  return total / static_cast<double>(suffixes);
}

}  // namespace dmpc::derand
