#include "lowdeg/coloring.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "field/batch_eval.hpp"
#include "field/primes.hpp"
#include "graph/transforms.hpp"
#include "graph/validate.hpp"
#include "support/check.hpp"

namespace dmpc::lowdeg {

using graph::Graph;
using graph::NodeId;

namespace {

/// Base-q digit expansion of `color`: digit i is the coefficient of x^i.
/// k <= 8 (see reduction_step), so k + 1 digits always fit the buffer.
void color_digits(std::uint32_t color, unsigned k, std::uint64_t q,
                  std::uint64_t* digits) {
  std::uint64_t c = color;
  for (unsigned i = 0; i <= k; ++i) {
    digits[i] = c % q;
    c /= q;
  }
}

/// Evaluate the degree-k polynomial encoding of `color` (base-q digits) at x.
std::uint64_t poly_of_color(std::uint32_t color, unsigned k, std::uint64_t q,
                            std::uint64_t x) {
  std::uint64_t digits[9];
  color_digits(color, k, q, digits);
  std::uint64_t acc = 0;
  for (unsigned i = k + 1; i-- > 0;) {
    acc = (acc * x + digits[i]) % q;
  }
  return acc;
}

/// Per-color evaluation rows: row(c)[x] = f_c(x) for every x in [0, q),
/// computed with the batched field kernel so a reduction step does one
/// column sweep per distinct color instead of a digit expansion per
/// (node, neighbor, x) probe. `(acc * x + digit) % q` in poly_of_color and
/// `mod.add(mod.mul(acc, x), digit)` agree exactly (digits < q), so the
/// table is bit-identical to the scalar probes it replaces.
class ColorTable {
 public:
  /// Builds rows for every color present in `color`. Returns false (leaving
  /// the table unusable) when the table would exceed the memory cap; callers
  /// then keep the probe path.
  bool build(const std::vector<std::uint32_t>& color, std::uint32_t num_colors,
             unsigned k, std::uint64_t q) {
    constexpr std::size_t kMaxEntries = std::size_t{1} << 27;  // 1 GiB of u64
    q_ = q;
    row_.assign(num_colors, kNoRow);
    std::vector<std::uint32_t> distinct;
    for (const std::uint32_t c : color) {
      if (row_[c] == kNoRow) {
        row_[c] = static_cast<std::uint32_t>(distinct.size());
        distinct.push_back(c);
      }
    }
    if (distinct.size() * q > kMaxEntries) return false;
    std::vector<std::uint64_t> xs(q);
    std::iota(xs.begin(), xs.end(), std::uint64_t{0});
    const field::Modulus mod(q);
    values_.resize(distinct.size() * q);
    std::uint64_t digits[9];
    for (std::size_t r = 0; r < distinct.size(); ++r) {
      color_digits(distinct[r], k, q, digits);
      field::poly_eval_many(mod, digits, k + 1, xs.data(), q,
                            values_.data() + r * q);
    }
    return true;
  }

  std::uint64_t at(std::uint32_t color, std::uint64_t x) const {
    return values_[static_cast<std::size_t>(row_[color]) * q_ + x];
  }

 private:
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;
  std::uint64_t q_ = 0;
  std::vector<std::uint32_t> row_;
  std::vector<std::uint64_t> values_;
};

/// One Linial reduction step: C colors -> q^2 colors. Returns the new color
/// count, or 0 when the step would not shrink the space (fixed point).
///
/// The polynomial degree k trades palette for encoding room: a degree-k
/// encoding needs q^{k+1} >= C and q > k*d, and yields q^2 new colors, so
/// we pick the k in [2, 8] minimizing q^2 (k = 1 forces q >= sqrt(C) and
/// can never shrink). The fixed point is q ~ 2d+1, i.e. O(d^2) colors up to
/// the prime gap — applied to G^2 this is the paper's O(Delta^4).
std::uint32_t reduction_step(const Graph& g, std::vector<std::uint32_t>& color,
                             std::uint32_t num_colors) {
  const std::uint64_t d = std::max<std::uint32_t>(g.max_degree(), 1);
  unsigned k = 0;
  std::uint64_t q = 0;
  for (unsigned kc = 2; kc <= 8; ++kc) {
    std::uint64_t qc = field::next_prime_at_least(kc * d + 1);
    while (std::pow(static_cast<double>(qc), static_cast<double>(kc + 1)) <
           static_cast<double>(num_colors)) {
      qc = field::next_prime_at_least(qc + 1);
    }
    if (k == 0 || qc * qc < q * q) {
      k = kc;
      q = qc;
    }
  }
  if (q * q >= num_colors) return 0;  // would not shrink — fixed point

  ColorTable table;
  const bool tabulated = table.build(color, num_colors, k, q);
  std::vector<std::uint32_t> next(color.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // Forbidden x values: those where f_v agrees with some neighbor's f_u.
    // At most k*d < q of them, so a free x always exists.
    bool placed = false;
    for (std::uint64_t x = 0; x < q && !placed; ++x) {
      const std::uint64_t fv = tabulated ? table.at(color[v], x)
                                         : poly_of_color(color[v], k, q, x);
      bool ok = true;
      for (NodeId u : g.neighbors(v)) {
        if (color[u] == color[v]) continue;  // cannot happen (proper input)
        const std::uint64_t fu = tabulated ? table.at(color[u], x)
                                           : poly_of_color(color[u], k, q, x);
        if (fu == fv) {
          ok = false;
          break;
        }
      }
      if (ok) {
        next[v] = static_cast<std::uint32_t>(x * q + fv);
        placed = true;
      }
    }
    DMPC_CHECK_MSG(placed, "Linial step found no free evaluation point");
  }
  color = std::move(next);
  const auto new_colors = static_cast<std::uint32_t>(q * q);
  return new_colors;
}

/// Each reduction step is O(1) MPC rounds: nodes need only neighbor colors.
void charge_linial(mpc::Cluster& cluster, const Graph& g,
                   const ColoringResult& result) {
  cluster.charge("coloring/linial",
                 std::max<std::uint32_t>(result.reduction_steps, 1),
                 static_cast<std::uint64_t>(result.reduction_steps + 1) * 2 *
                     g.num_edges());
}

}  // namespace

ColoringResult linial_coloring_raw(const Graph& g) {
  ColoringResult result;
  result.color.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) result.color[v] = v;
  result.num_colors = std::max<std::uint32_t>(g.num_nodes(), 1);

  // Iterate while the step shrinks the color space; O(log* n) steps since
  // C -> O((D log_D C)^2).
  while (true) {
    const std::uint32_t next =
        reduction_step(g, result.color, result.num_colors);
    if (next == 0) break;  // fixed point reached
    ++result.reduction_steps;
    result.num_colors = next;
  }
  DMPC_CHECK(graph::is_proper_coloring(g, result.color));
  return result;
}

ColoringResult distance2_coloring_raw(const Graph& g) {
  const Graph g2 = graph::square(g);
  ColoringResult result = linial_coloring_raw(g2);
  DMPC_CHECK(graph::is_distance2_coloring(g, result.color));
  return result;
}

ColoringResult linial_coloring(mpc::Cluster& cluster, const Graph& g) {
  ColoringResult result = linial_coloring_raw(g);
  charge_linial(cluster, g, result);
  return result;
}

ColoringResult distance2_coloring(mpc::Cluster& cluster, const Graph& g) {
  // Building G^2 locally needs the 2-hop neighborhood on the node's machine:
  // Delta^2 words, within S for the Delta <= n^{delta} regime (§5).
  cluster.check_load(static_cast<std::uint64_t>(g.max_degree()) *
                         std::max<std::uint32_t>(g.max_degree(), 1),
                     "coloring/2hop", "coloring/2hop");
  cluster.charge("coloring/2hop", 2, 0);
  ColoringResult result = distance2_coloring_raw(g);
  charge_linial(cluster, g, result);
  return result;
}

}  // namespace dmpc::lowdeg
