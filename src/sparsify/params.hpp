// Parameters shared by the sparsification pipeline (§3, §4).
//
// The paper fixes a constant delta with 1/delta integral (delta = eps/8 in
// the final theorems) and measures everything in powers n^{delta}:
// degree classes C_i = [n^{(i-1)delta}, n^{i delta}), per-stage sampling
// probability n^{-delta}, machine-group size n^{4 delta}, and the final
// degree cap O(n^{4 delta}). `n` is the node count of the ORIGINAL input
// graph and stays fixed across iterations (S is provisioned against it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "support/check.hpp"

namespace dmpc::sparsify {

struct Params {
  std::uint64_t n = 0;       ///< Original node count.
  std::uint32_t inv_delta = 8;  ///< 1/delta (integer per the paper).

  /// The pipelines' parameters on an n-node input (n clamped to >= 2);
  /// inv_delta = 0 derives the paper's delta = eps/8 (inv_delta = 8/eps).
  static Params for_eps(std::uint64_t n, double eps, std::uint32_t inv_delta) {
    Params params;
    params.n = std::max<std::uint64_t>(n, 2);
    params.inv_delta =
        inv_delta != 0
            ? inv_delta
            : std::max<std::uint32_t>(
                  1, static_cast<std::uint32_t>(std::lround(8.0 / eps)));
    return params;
  }

  double delta() const { return 1.0 / static_cast<double>(inv_delta); }

  /// n^{x * delta} as a real.
  double pow_nd(double x) const {
    return std::pow(static_cast<double>(n), x * delta());
  }

  /// Per-stage sampling probability n^{-delta}.
  double sample_probability() const { return 1.0 / pow_nd(1.0); }

  /// Machine-group size n^{4 delta}, at least 1.
  std::uint64_t group_size() const {
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(pow_nd(4.0)));
  }

  /// Degree cap for the sparsified subgraph, 2 n^{4 delta} (§3.3 / §4.3).
  std::uint64_t degree_cap() const {
    return std::max<std::uint64_t>(2, static_cast<std::uint64_t>(2.0 * pow_nd(4.0)));
  }

  /// Degree class of a positive degree: the i in [1, 1/delta] with
  /// n^{(i-1)delta} <= d < n^{i delta}; degrees >= n are clamped to the top
  /// class. Degree 0 returns 0 (no class).
  std::uint32_t class_of_degree(std::uint64_t d) const {
    if (d == 0) return 0;
    DMPC_CHECK(n >= 2);
    const double log_ratio =
        std::log(static_cast<double>(d)) / std::log(static_cast<double>(n));
    auto i = static_cast<std::uint32_t>(std::floor(log_ratio / delta())) + 1;
    return std::min(i, inv_delta);
  }

  /// Lower degree bound of class i: n^{(i-1) delta}.
  double class_lower(std::uint32_t i) const {
    DMPC_CHECK(i >= 1 && i <= inv_delta);
    return pow_nd(static_cast<double>(i - 1));
  }

  /// Number of sparsification stages for class i: max(0, i - 4) (§3.2).
  std::uint32_t stages_for_class(std::uint32_t i) const {
    return i <= 4 ? 0 : i - 4;
  }
};

}  // namespace dmpc::sparsify
