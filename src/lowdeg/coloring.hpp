// Deterministic O(Delta^4) coloring of G^2 in O(log* n) rounds (§5.1).
//
// The §5 algorithm replaces node ids by 2-hop-distinct names from a space of
// size O(Delta^4), so that a Luby phase needs only an O(log Delta)-bit seed.
// We implement Linial's classic color reduction with polynomials over a
// prime field: a node with color c (encoded as a degree-k polynomial f_c
// over F_q, q > k * D for max degree D) picks the smallest x in F_q with
// f_c(x) != f_u(x) for every neighbor u — at most k*D < q values are
// forbidden — and adopts color (x, f_c(x)) in [q^2]. One such step shrinks C
// colors to q^2 = O((D log_D C)^2) and O(log* n) steps reach the fixed point
// q^2 = O(D^2). Applied to G^2 (max degree D <= Delta^2) this yields the
// O(Delta^4) coloring the paper needs.
//
// G^2 is never built: the distance-2 coloring walks each node's 2-hop
// neighborhood in G (u in N(v), then w in N(u) with w != v) and takes D as
// the largest count of distinct nodes within distance 2. A node's next
// color reads only the previous colors, so every step runs on the executor
// and the colors are identical at every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/parallel.hpp"
#include "graph/graph.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::lowdeg {

struct ColoringResult {
  std::vector<std::uint32_t> color;   ///< Per node, in [0, num_colors).
  std::uint32_t num_colors = 0;
  std::uint32_t reduction_steps = 0;  ///< Linial iterations (O(log* n)).
};

/// Pure computation: proper coloring of `g` with O(max_degree^2) colors.
/// An empty graph gets an empty coloring with num_colors 1.
ColoringResult linial_coloring_raw(const graph::Graph& g,
                                   const exec::Executor& ex);

/// Pure computation: distance-2 coloring of `g` with O(Delta^4) colors —
/// exactly the colors Linial on G^2 would give. An empty graph gets an
/// empty coloring with num_colors 1.
ColoringResult distance2_coloring_raw(const graph::Graph& g,
                                      const exec::Executor& ex);

/// Proper coloring of `g` with O(max_degree^2) colors, with MPC round
/// charging (one round per reduction step).
ColoringResult linial_coloring(mpc::Cluster& cluster, const graph::Graph& g);

/// Distance-2 coloring of `g` with O(Delta^4) colors (Linial on G^2),
/// with MPC round charging and the 2-hop space check.
ColoringResult distance2_coloring(mpc::Cluster& cluster,
                                  const graph::Graph& g);

}  // namespace dmpc::lowdeg
