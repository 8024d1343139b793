// The method of conditional expectations (paper §2.4), verbatim.
//
// The seed is fixed chunk by chunk (most significant first). For each chunk
// and each candidate digit i, machines compute E[q_x(h) | Xi_i] for their
// local terms; one Lemma-4 aggregation sums them, and the maximizing digit
// is fixed. Since E[q] >= Q, some candidate always has conditional
// expectation >= the running bound, so the final fully-fixed seed satisfies
// q(h*) >= Q — which fix_seed verifies with a real evaluation before
// returning.
//
// ExhaustiveConditional upgrades any Objective to a ConditionalObjective by
// computing conditional expectations exactly — averaging the true objective
// over every suffix completion. That is only feasible for small seed spaces
// (tests, §5's O(log Delta)-bit families); the large-family production
// paths are derand::try_find_seed (the sparsifier stages) and
// derand::select_seed (the selection commit); see seed_search.hpp for the
// guarantee argument.
#pragma once

#include <cstdint>
#include <string>

#include "derand/objective.hpp"
#include "hash/seed.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::derand {

struct FixResult {
  std::uint64_t seed = 0;
  double value = 0.0;          ///< Exact objective at the committed seed.
  std::uint64_t chunks = 0;    ///< Chunks fixed (== space.chunk_count()).
};

/// Cap on the candidates one fix_seed sweeps across all chunks. The chunked
/// radix total is known up front, so exceeding it is a CheckFailure (a
/// misconfigured seed space).
inline constexpr std::uint64_t kMaxSweptCandidates = 1 << 20;

struct FixOptions {
  /// Round-charge label (also the trace span name).
  std::string label = "cond_expect";
  /// The proved lower bound Q on E[q]; the committed seed must achieve it
  /// (CheckFailure otherwise — that would falsify the conditional oracle).
  double guarantee = 0.0;
};

/// Run the method of conditional expectations over the chunked seed space.
FixResult fix_seed(mpc::Cluster& cluster, const ConditionalObjective& objective,
                   const hash::SeedSpace& space, const FixOptions& options);

/// Exact conditional expectations by suffix enumeration (small spaces only).
class ExhaustiveConditional final : public ConditionalObjective {
 public:
  ExhaustiveConditional(const Objective& base, const hash::SeedSpace& space)
      : base_(&base), space_(&space) {}

  double evaluate(std::uint64_t seed) const override {
    return base_->evaluate(seed);
  }
  std::uint64_t term_count() const override { return base_->term_count(); }

  /// The mean of the base objective over every suffix completion, summed in
  /// ascending suffix order.
  double conditional_expectation(const std::vector<std::uint64_t>& prefix,
                                 std::uint64_t candidate) const override;

 private:
  const Objective* base_;
  const hash::SeedSpace* space_;
};

}  // namespace dmpc::derand
