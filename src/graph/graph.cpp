#include "graph/graph.hpp"

#include <algorithm>
#include <ranges>

#include "exec/parallel.hpp"
#include "support/check.hpp"

namespace dmpc::graph {

namespace {

/// Heap residency for graphs built by from_edges: the four CSR arrays,
/// referenced by a single extent.
struct HeapCsr {
  std::vector<std::uint64_t> offsets;  // n+1
  std::vector<NodeId> adjacency;       // 2m
  std::vector<EdgeId> incident;        // 2m
  std::vector<Edge> edges;             // m, canonical order
};

}  // namespace

bool operator==(const EdgeRange& a, const EdgeRange& b) {
  if (a.m_ != b.m_) return false;
  return std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const EdgeRange& a, const std::vector<Edge>& b) {
  if (a.m_ != b.size()) return false;
  return std::equal(a.begin(), a.end(), b.begin());
}

Graph Graph::from_edges(NodeId n, std::vector<Edge> edges) {
  return from_edges(n, std::move(edges), exec::Executor::serial());
}

Graph Graph::from_edges(NodeId n, std::vector<Edge> edges,
                        const exec::Executor& ex) {
  // Validation and canonicalization touch each edge independently; the
  // lowest-index failure is rethrown, so error behavior matches the serial
  // scan. parallel_sort's output permutation depends only on the data (here
  // a total order, so it equals std::sort's).
  ex.for_each(
      0, edges.size(),
      [&](std::uint64_t i) {
        Edge& e = edges[i];
        DMPC_CHECK_MSG(e.u != e.v, "self-loops are not supported");
        DMPC_CHECK_MSG(e.u < n && e.v < n, "edge endpoint out of range");
        if (e.u > e.v) std::swap(e.u, e.v);
      },
      4096);
  exec::parallel_sort(ex, edges);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  auto csr = std::make_shared<HeapCsr>();
  csr->edges = std::move(edges);
  csr->offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : csr->edges) {
    ++csr->offsets[e.u + 1];
    ++csr->offsets[e.v + 1];
  }
  for (NodeId v = 0; v < n; ++v) csr->offsets[v + 1] += csr->offsets[v];

  const std::size_t deg_sum = csr->offsets[n];
  csr->adjacency.resize(deg_sum);
  csr->incident.resize(deg_sum);
  std::vector<std::uint64_t> cursor(csr->offsets.begin(),
                                    csr->offsets.end() - 1);
  for (EdgeId id = 0; id < csr->edges.size(); ++id) {
    const Edge& e = csr->edges[id];
    csr->adjacency[cursor[e.u]] = e.v;
    csr->incident[cursor[e.u]++] = id;
    csr->adjacency[cursor[e.v]] = e.u;
    csr->incident[cursor[e.v]++] = id;
  }

  GraphExtent part;
  part.node_begin = 0;
  part.node_end = n;
  part.edge_begin = 0;
  part.edge_end = static_cast<EdgeId>(csr->edges.size());
  part.slot_begin = 0;
  part.slot_end = deg_sum;
  part.offsets = csr->offsets.data();
  part.adjacency = csr->adjacency.data();
  part.incident = csr->incident.data();
  part.edges = csr->edges.data();

  Graph g = from_extents(n, part.edge_end, 0, {part}, std::move(csr));
  // Canonical edge order already sorts each adjacency row ascending:
  // edges are sorted by (u, v), so row u receives v's in increasing order,
  // and row v receives u's in increasing order of u. Verify cheaply once
  // (node-parallel; exact max reduction).
  g.max_degree_ = ex.map_reduce(
      0, n, std::uint32_t{0},
      [&](std::uint64_t v) {
        auto nb = g.neighbors(static_cast<NodeId>(v));
        DMPC_CHECK(std::is_sorted(nb.begin(), nb.end()));
        return static_cast<std::uint32_t>(nb.size());
      },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); }, 256);
  return g;
}

Graph Graph::from_extents(NodeId n, EdgeId m, std::uint32_t max_degree,
                          std::vector<GraphExtent> parts,
                          std::shared_ptr<const void> residency) {
  // Structural sanity: extents tile the node/edge/slot ranges contiguously.
  NodeId node_cursor = 0;
  EdgeId edge_cursor = 0;
  std::uint64_t slot_cursor = 0;
  for (const GraphExtent& p : parts) {
    DMPC_CHECK_MSG(p.node_begin == node_cursor, "extent node range gap");
    DMPC_CHECK_MSG(p.node_end >= p.node_begin, "extent node range inverted");
    DMPC_CHECK_MSG(p.edge_begin == edge_cursor, "extent edge range gap");
    DMPC_CHECK_MSG(p.edge_end >= p.edge_begin, "extent edge range inverted");
    DMPC_CHECK_MSG(p.slot_begin == slot_cursor, "extent slot range gap");
    DMPC_CHECK_MSG(p.slot_end >= p.slot_begin, "extent slot range inverted");
    if (p.node_end > p.node_begin) {
      DMPC_CHECK_MSG(p.offsets != nullptr, "extent missing offsets");
      DMPC_CHECK_MSG(p.offsets[0] == p.slot_begin, "extent offsets unanchored");
      DMPC_CHECK_MSG(p.offsets[p.node_end - p.node_begin] == p.slot_end,
                     "extent offsets do not span slots");
    }
    node_cursor = p.node_end;
    edge_cursor = p.edge_end;
    slot_cursor = p.slot_end;
  }
  DMPC_CHECK_MSG(node_cursor == n, "extents do not cover all nodes");
  DMPC_CHECK_MSG(edge_cursor == m, "extents do not cover all edges");
  DMPC_CHECK_MSG(slot_cursor == 2 * m, "extents do not cover all slots");

  Graph g;
  g.n_ = n;
  g.m_ = m;
  g.max_degree_ = max_degree;
  g.parts_ = std::move(parts);
  g.residency_ = std::move(residency);
  return g;
}

const GraphExtent* Graph::find_part_for_node(NodeId v) const {
  // First extent with node_end > v.
  auto it = std::partition_point(
      parts_.begin(), parts_.end(),
      [v](const GraphExtent& p) { return p.node_end <= v; });
  DMPC_CHECK(it != parts_.end());
  return &*it;
}

const GraphExtent* Graph::find_part_for_edge(EdgeId e) const {
  auto it = std::partition_point(
      parts_.begin(), parts_.end(),
      [e](const GraphExtent& p) { return p.edge_end <= e; });
  DMPC_CHECK(it != parts_.end());
  return &*it;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return find_edge(u, v) != kNoEdge;
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_ || u == v) return kNoEdge;
  auto nb = neighbors(u);
  auto it = std::lower_bound(nb.begin(), nb.end(), v);
  if (it == nb.end() || *it != v) return kNoEdge;
  return incident_edges(u)[static_cast<std::size_t>(it - nb.begin())];
}

NodeId Graph::other_endpoint(EdgeId e, NodeId v) const {
  const Edge& ed = edge(e);
  DMPC_CHECK(ed.u == v || ed.v == v);
  return ed.u == v ? ed.v : ed.u;
}

std::vector<std::uint32_t> masked_degrees(const Graph& g,
                                          const std::vector<bool>& edge_mask,
                                          const exec::Executor& ex) {
  DMPC_CHECK(edge_mask.size() == g.num_edges());
  // Node-parallel: deg[v] = number of v's incident edges with the mask bit
  // set, computed with disjoint writes.
  std::vector<std::uint32_t> deg(g.num_nodes(), 0);
  ex.for_each(
      0, g.num_nodes(),
      [&](std::uint64_t v) {
        std::uint32_t d = 0;
        for (EdgeId e : g.incident_edges(static_cast<NodeId>(v))) {
          if (edge_mask[e]) ++d;
        }
        deg[v] = d;
      },
      256);
  return deg;
}

std::vector<std::uint32_t> alive_degrees(const Graph& g,
                                         const std::vector<bool>& alive,
                                         const exec::Executor& ex) {
  DMPC_CHECK(alive.size() == g.num_nodes());
  // Node-parallel: a dead node gets 0 (no edge with both endpoints alive
  // touches it); an alive node counts its alive neighbors.
  std::vector<std::uint32_t> deg(g.num_nodes(), 0);
  ex.for_each(
      0, g.num_nodes(),
      [&](std::uint64_t v) {
        if (!alive[v]) return;
        std::uint32_t d = 0;
        for (NodeId u : g.neighbors(static_cast<NodeId>(v))) {
          if (alive[u]) ++d;
        }
        deg[v] = d;
      },
      256);
  return deg;
}

EdgeId alive_edge_count(const Graph& g, const std::vector<bool>& alive,
                        const exec::Executor& ex) {
  DMPC_CHECK(alive.size() == g.num_nodes());
  return ex.map_reduce(
      0, g.num_edges(), EdgeId{0},
      [&](std::uint64_t e) {
        const Edge& ed = g.edge(e);
        return static_cast<EdgeId>(alive[ed.u] && alive[ed.v] ? 1 : 0);
      },
      [](EdgeId a, EdgeId b) { return a + b; }, 4096);
}

std::vector<NodeId> winners(const Graph& g, const std::vector<bool>& live,
                            const std::vector<std::uint64_t>& z) {
  return winners(g, std::views::iota(NodeId{0}, g.num_nodes()), live,
                 [&z](NodeId v) { return z[v]; });
}

void remove_closed(const Graph& g, const std::vector<NodeId>& nodes,
                   std::vector<bool>& alive) {
  for (NodeId v : nodes) {
    alive[v] = false;
    for (NodeId u : g.neighbors(v)) alive[u] = false;
  }
}

}  // namespace dmpc::graph
