// k-wise independent hash families (paper §2.3, Lemma 6).
//
// A family member is a degree-(k-1) polynomial over Z_p evaluated at the
// input and reduced into the range:
//
//     h_s(x) = poly_s(x mod p) mod range,   poly_s has k coefficients in [p).
//
// For distinct inputs x_1..x_k (< p), the raw values poly_s(x_i) are fully
// independent and uniform in [p) when the coefficients are uniform — the
// classic construction. Reducing mod `range` introduces a bias of at most
// range/p per value, which is the 1/n^3-type slack the paper's lemmas absorb
// (they always use the threshold form "h(e) <= n^{3-delta}" with p >= n^3).
//
// Seed indexing: a seed is a single integer in [0, p^k) interpreted in base
// p; digit j is assigned to coefficient a_{(j+1) mod k}, i.e. the LINEAR
// coefficient varies fastest and the constant term last. This makes the
// deterministic seed-enumeration order (0, 1, 2, ...) immediately produce
// non-degenerate polynomials — seed 1 is h(x) = x — while still enumerating
// the whole family exhaustively, which is what the probabilistic-method
// guarantee of derand::try_find_seed relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "field/batch_eval.hpp"
#include "field/fastmod.hpp"
#include "field/modulus.hpp"

namespace dmpc::hash {

/// A single bound hash function (coefficients fixed). Cheap to copy.
class HashFn {
 public:
  HashFn(field::Modulus mod, std::vector<std::uint64_t> coeffs,
         std::uint64_t range)
      : mod_(mod),
        coeffs_(std::move(coeffs)),
        range_(range),
        fast_range_(range) {}

  /// Value in [0, range). The range reduction is a precomputed Lemire
  /// remainder — bit-identical to raw(x) % range().
  std::uint64_t operator()(std::uint64_t x) const {
    return fast_range_.mod(raw(x));
  }

  /// Raw polynomial value in [0, p) — use with threshold tests for the
  /// least bias.
  std::uint64_t raw(std::uint64_t x) const {
    return mod_.poly_eval(coeffs_, mod_.reduce(x));
  }

  /// out[i] = raw(xs[i]) for a contiguous point range, through the
  /// lane-parallel kernel (bit-identical to per-point raw()).
  void raw_many(const std::uint64_t* xs, std::size_t count,
                std::uint64_t* out) const {
    field::poly_eval_many(mod_, coeffs_.data(), coeffs_.size(), xs, count,
                          out);
  }

  std::uint64_t range() const { return range_; }
  std::uint64_t p() const { return mod_.value(); }
  const field::Modulus& modulus() const { return mod_; }
  const std::vector<std::uint64_t>& coefficients() const { return coeffs_; }

 private:
  field::Modulus mod_;
  std::vector<std::uint64_t> coeffs_;
  std::uint64_t range_;
  field::FastDiv64 fast_range_;
};

/// The family H = {h : [domain) -> [range)} of k-wise independent functions.
class KWiseFamily {
 public:
  /// Picks the smallest prime p >= max(domain, range).
  KWiseFamily(std::uint64_t domain, std::uint64_t range, unsigned k);

  /// Explicit prime (must be >= max(domain, range)).
  KWiseFamily(std::uint64_t domain, std::uint64_t range, unsigned k,
              std::uint64_t p);

  unsigned k() const { return k_; }
  std::uint64_t p() const { return mod_.value(); }
  std::uint64_t domain() const { return domain_; }
  std::uint64_t range() const { return range_; }

  /// Number of distinct seeds, i.e. min(p^k, 2^64-1). Seeds beyond the true
  /// family size wrap around (seed indexing is mod p^k).
  std::uint64_t seed_count() const { return seed_count_; }

  /// Whether p^k fits in 64 bits (so seed_count() is exact and the family
  /// can be exhaustively enumerated).
  bool enumerable() const { return enumerable_; }

  /// Materialize the function for a seed index.
  HashFn at(std::uint64_t seed) const;

  /// Convenience: evaluate without materializing (still O(k)).
  std::uint64_t eval(std::uint64_t seed, std::uint64_t x) const {
    return at(seed)(x);
  }

  /// Coefficients for a seed (base-p digits, linear coefficient first).
  std::vector<std::uint64_t> coefficients(std::uint64_t seed) const;

  /// Allocation-free variant: writes exactly k() coefficients to `out`.
  /// Sweep loops call this per candidate seed with a reused buffer.
  void coefficients_into(std::uint64_t seed, std::uint64_t* out) const;

  const field::Modulus& modulus() const { return mod_; }

 private:
  std::uint64_t domain_;
  std::uint64_t range_;
  unsigned k_;
  field::Modulus mod_;
  std::uint64_t seed_count_;
  bool enumerable_;
};

}  // namespace dmpc::hash
