// Small pairwise-independent families H* : [C] -> [C] with O(log C)-bit
// seeds (paper §5.1), and enumerable *sequences* of such functions for the
// phase-compression step (§5.2.2).
//
// After the O(Delta^4)-coloring of G^2, Luby's algorithm only needs hash
// values per color class, so C = O(Delta^4) and one function costs
// O(log Delta) seed bits. A stage derandomizes l phases at once by searching
// over all sequences (h_1, ..., h_l) in H*^l — the sequence space is the
// SeedSpace with l chunks of radix |H*|.
#pragma once

#include <cstdint>
#include <vector>

#include "hash/kwise.hpp"
#include "hash/seed.hpp"

namespace dmpc::hash {

/// Pairwise-independent family over a small color space [C] -> [C].
/// Backed by KWiseFamily with k = 2 and the smallest prime p >= C, so the
/// seed is one index in [0, p^2) ~ 2*log2(C) + O(1) bits.
class SmallFamily {
 public:
  explicit SmallFamily(std::uint64_t color_count);

  std::uint64_t color_count() const { return colors_; }
  std::uint64_t p() const { return family_.p(); }
  std::uint64_t seed_count() const { return family_.seed_count(); }

  HashFn at(std::uint64_t seed) const { return family_.at(seed); }
  std::uint64_t eval(std::uint64_t seed, std::uint64_t color) const {
    return family_.eval(seed, color);
  }

  const KWiseFamily& family() const { return family_; }

 private:
  std::uint64_t colors_;
  KWiseFamily family_;
};

/// A sequence (h_1, ..., h_length) from a SmallFamily, indexed by a single
/// sequence seed. `candidate_cap` bounds how many per-phase seeds are
/// enumerated when the full family is too large to sweep — the enumeration
/// order is the family's deterministic seed order, so a search over the
/// capped space is a search over a prefix of the true family.
class FunctionSequence {
 public:
  FunctionSequence(const SmallFamily& family, unsigned length,
                   std::uint64_t candidate_cap);

  unsigned length() const { return length_; }
  /// Colors [0, color_count()) each phase function is defined on.
  std::uint64_t color_count() const { return family_->color_count(); }
  std::uint64_t per_phase_seeds() const { return per_phase_; }
  std::uint64_t sequence_count() const { return space_.size(); }
  const SeedSpace& space() const { return space_; }

  /// The per-phase seed for phase i (0-based) under sequence seed `seq`.
  std::uint64_t phase_seed(std::uint64_t seq, unsigned phase) const;

  /// Materialize function for a phase.
  HashFn phase_fn(std::uint64_t seq, unsigned phase) const;

  /// A deterministic low-discrepancy enumeration of the sequence space: the
  /// t-th candidate varies every phase's seed (plain counting order would
  /// only sweep the last phase for small t). Injective is not required —
  /// this feeds a best-of search with an explicit progress check.
  std::uint64_t diverse(std::uint64_t t) const;

 private:
  const SmallFamily* family_;
  unsigned length_;
  std::uint64_t per_phase_;
  SeedSpace space_;
};

}  // namespace dmpc::hash
