#include "lowdeg/coloring.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "field/primes.hpp"
#include "graph/validate.hpp"
#include "lowdeg/neighborhoods.hpp"
#include "support/check.hpp"

namespace dmpc::lowdeg {

using graph::Graph;
using graph::NodeId;

namespace {

/// Evaluate the degree-k polynomial encoding of `color` (base-q digits:
/// digit i is the coefficient of x^i) at x. k <= 8 (see reduction_step).
std::uint64_t poly_of_color(std::uint32_t color, unsigned k, std::uint64_t q,
                            std::uint64_t x) {
  std::uint64_t digits[9];
  std::uint64_t c = color;
  for (unsigned i = 0; i <= k; ++i) {
    digits[i] = c % q;
    c /= q;
  }
  std::uint64_t acc = 0;
  for (unsigned i = k + 1; i-- > 0;) {
    acc = (acc * x + digits[i]) % q;
  }
  return acc;
}

/// One Linial reduction step: C colors -> q^2 colors on a graph of `n`
/// nodes and max degree `d`. `collides(v, pred)` visits v's neighbors and
/// returns true as soon as `pred(u)` holds for one. Returns the new color
/// count, or 0 when the step would not shrink the space (fixed point).
///
/// The polynomial degree k trades palette for encoding room: a degree-k
/// encoding needs q^{k+1} >= C and q > k*d, and yields q^2 new colors, so
/// we pick the k in [2, 8] minimizing q^2 (k = 1 forces q >= sqrt(C) and
/// can never shrink). The fixed point is q ~ 2d+1, i.e. O(d^2) colors up to
/// the prime gap — applied to G^2 this is the paper's O(Delta^4).
template <typename Collides>
std::uint32_t reduction_step(NodeId n, std::uint64_t d,
                             const exec::Executor& ex,
                             std::vector<std::uint32_t>& color,
                             std::uint32_t num_colors,
                             const Collides& collides) {
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

  std::vector<std::uint32_t> next(color.size());
  ex.for_each(
      0, n,
      [&](std::uint64_t i) {
        const auto v = static_cast<NodeId>(i);
        const std::uint32_t cv = color[v];
        // Forbidden x values: those where f_v agrees with some neighbor's
        // f_u. At most k*d < q of them, so a free x always exists.
        bool placed = false;
        for (std::uint64_t x = 0; x < q && !placed; ++x) {
          const std::uint64_t fv = poly_of_color(cv, k, q, x);
          // A neighbor sharing v's color cannot happen (proper input).
          const bool forbidden = collides(v, [&](NodeId u) {
            return color[u] != cv && poly_of_color(color[u], k, q, x) == fv;
          });
          if (!forbidden) {
            next[v] = static_cast<std::uint32_t>(x * q + fv);
            placed = true;
          }
        }
        DMPC_CHECK_MSG(placed, "Linial step found no free evaluation point");
      },
      /*grain=*/1024);
  color = std::move(next);
  return static_cast<std::uint32_t>(q * q);
}

/// Linial from the identity coloring until a step no longer shrinks the
/// palette; O(log* n) steps since C -> O((D log_D C)^2).
template <typename Collides>
ColoringResult linial(NodeId n, std::uint64_t d, const exec::Executor& ex,
                      const Collides& collides) {
  ColoringResult result;
  result.color.resize(n);
  std::iota(result.color.begin(), result.color.end(), std::uint32_t{0});
  result.num_colors = std::max<std::uint32_t>(n, 1);
  while (true) {
    const std::uint32_t next =
        reduction_step(n, d, ex, result.color, result.num_colors, collides);
    if (next == 0) break;  // fixed point reached
    ++result.reduction_steps;
    result.num_colors = next;
  }
  return result;
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

ColoringResult linial_coloring_raw(const Graph& g, const exec::Executor& ex) {
  ColoringResult result =
      linial(g.num_nodes(), std::max<std::uint32_t>(g.max_degree(), 1), ex,
             [&g](NodeId v, const auto& pred) {
               for (NodeId u : g.neighbors(v)) {
                 if (pred(u)) return true;
               }
               return false;
             });
  DMPC_CHECK(graph::is_proper_coloring(g, result.color));
  return result;
}

ColoringResult distance2_coloring_raw(const Graph& g,
                                      const exec::Executor& ex) {
  // G^2's max degree: the largest radius-2 ball, less its centre.
  const std::uint64_t ball = largest_ball(
      g, std::vector<bool>(g.num_nodes(), true), /*radius=*/2, ex);
  // A 2-hop neighbor reached twice is harmless: only whether some neighbor
  // collides at x matters.
  ColoringResult result =
      linial(g.num_nodes(), std::max<std::uint64_t>(ball, 2) - 1, ex,
             [&g](NodeId v, const auto& pred) {
               for (NodeId u : g.neighbors(v)) {
                 if (pred(u)) return true;
                 for (NodeId w : g.neighbors(u)) {
                   if (w != v && pred(w)) return true;
                 }
               }
               return false;
             });
  DMPC_CHECK(graph::is_distance2_coloring(g, result.color));
  return result;
}

ColoringResult linial_coloring(mpc::Cluster& cluster, const Graph& g) {
  ColoringResult result = linial_coloring_raw(g, cluster.executor());
  charge_linial(cluster, g, result);
  return result;
}

ColoringResult distance2_coloring(mpc::Cluster& cluster, const Graph& g) {
  // Walking the 2-hop neighborhood locally needs it on the node's machine:
  // Delta^2 words, within S for the Delta <= n^{delta} regime (§5).
  cluster.check_load(static_cast<std::uint64_t>(g.max_degree()) *
                         std::max<std::uint32_t>(g.max_degree(), 1),
                     "coloring/2hop", "coloring/2hop");
  cluster.charge("coloring/2hop", 2, 0);
  ColoringResult result = distance2_coloring_raw(g, cluster.executor());
  charge_linial(cluster, g, result);
  return result;
}

}  // namespace dmpc::lowdeg
