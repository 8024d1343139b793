#include "graph/graph.hpp"

#include <algorithm>
#include <cstddef>
#include <ranges>
#include <utility>

#include "exec/parallel.hpp"
#include "support/check.hpp"
#include "support/default_init.hpp"

namespace dmpc::graph {

namespace {

/// Heap residency for graphs built by from_edges: the four CSR arrays,
/// referenced by a single extent.
struct HeapCsr {
  std::vector<std::uint64_t> offsets;    // n+1
  DefaultInitVector<NodeId> adjacency;   // 2m
  DefaultInitVector<EdgeId> incident;    // 2m
  std::vector<Edge> edges;               // m, canonical order
};

/// Nodes per chunk of the node-parallel passes of the CSR build.
constexpr std::uint64_t kNodeGrain = 4096;

/// Tasks of a counting pass over `items` items into `buckets` buckets: one
/// per thread, but never so many that the per-task histograms (tasks ×
/// buckets words) outgrow the items they count. The passes' results do not
/// depend on it.
std::uint64_t counting_tasks(const exec::Executor& ex, std::uint64_t items,
                             std::uint64_t buckets) {
  return std::clamp<std::uint64_t>(items / std::max<std::uint64_t>(buckets, 1),
                                   1, ex.threads());
}

/// Per-task bucket counts of a stable counting sort, which then serve as
/// the tasks' write cursors, relative to each bucket's start (`Count` must
/// hold a bucket's size). Allocated without zeroing: each task zeroes its
/// own row, so the pages are first touched in parallel.
template <typename Count>
class TaskCounts {
 public:
  TaskCounts(std::uint64_t tasks, std::uint64_t buckets)
      : tasks_(tasks), buckets_(buckets), counts_(tasks * buckets) {}

  Count* row(std::uint64_t t) { return counts_.data() + t * buckets_; }

  /// Task t's row, zeroed; task t calls it before it counts.
  Count* zeroed_row(std::uint64_t t) {
    std::fill_n(row(t), buckets_, Count{0});
    return row(t);
  }

  /// Bucket b's counts become its tasks' offsets within the bucket, in task
  /// order; returns the bucket's size.
  std::uint64_t scan(std::uint64_t b) {
    Count total = 0;
    for (std::uint64_t t = 0; t < tasks_; ++t) {
      Count& c = counts_[t * buckets_ + b];
      const Count k = c;
      c = total;
      total += k;
    }
    return total;
  }

 private:
  std::uint64_t tasks_;
  std::uint64_t buckets_;
  DefaultInitVector<Count> counts_;
};

/// The items [lo, hi) of task t of `tasks`.
std::pair<std::uint64_t, std::uint64_t> task_range(std::uint64_t t,
                                                   std::uint64_t tasks,
                                                   std::uint64_t items) {
  return {items * t / tasks, items * (t + 1) / tasks};
}

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
  std::vector<Edge> canonical = canonical_edges(n, edges, ex);
  std::vector<Edge>().swap(edges);
  return from_canonical(n, std::move(canonical), ex);
}

Graph Graph::from_canonical(NodeId n, std::vector<Edge> canonical,
                            const exec::Executor& ex) {
  auto csr = std::make_shared<HeapCsr>();
  csr->edges = std::move(canonical);
  const std::vector<Edge>& edges = csr->edges;
  const std::uint64_t m = edges.size();
  const std::uint64_t tasks = counting_tasks(ex, m, n);

  // Edge-parallel: check the order, count each task's lower neighbors per
  // row, and find first[x], the id of x's first own edge (m past the last).
  std::vector<std::uint64_t> first(static_cast<std::size_t>(n) + 1, m);
  TaskCounts<std::uint32_t> heads(tasks, n);  // a head holds < n nodes
  ex.for_each(0, tasks, [&](std::uint64_t t) {
    std::uint32_t* count = heads.zeroed_row(t);
    const auto [lo, hi] = task_range(t, tasks, m);
    for (std::uint64_t id = lo; id < hi; ++id) {
      const Edge& e = edges[id];
      DMPC_CHECK_MSG(e.u < e.v && e.v < n, "edge is not canonical");
      DMPC_CHECK_MSG(id == 0 || edges[id - 1] < e,
                     "canonical edges must be sorted and distinct");
      for (NodeId x = id == 0 ? 0 : edges[id - 1].u + 1; x <= e.u; ++x) {
        first[x] = id;
      }
      ++count[e.v];
    }
  });

  // Node-parallel: each row's lower-neighbor counts become offsets within
  // the row's head, in task order; its degree adds its own edges.
  csr->offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  ex.for_each(
      0, n,
      [&](std::uint64_t x) {
        csr->offsets[x + 1] = heads.scan(x) + (first[x + 1] - first[x]);
      },
      kNodeGrain);
  std::uint32_t max_degree = 0;
  for (NodeId x = 0; x < n; ++x) {
    max_degree = std::max(max_degree,
                          static_cast<std::uint32_t>(csr->offsets[x + 1]));
    csr->offsets[x + 1] += csr->offsets[x];
  }

  // Edge-parallel scatter into slot arrays left unzeroed, since it writes
  // every slot: edge (u, v) is the (id - first[u])-th upper neighbor of u,
  // which end row u, and the next lower neighbor of v in its task's range
  // of row v's head.
  const std::size_t deg_sum = csr->offsets[n];
  csr->adjacency.resize(deg_sum);
  csr->incident.resize(deg_sum);
  const std::uint64_t* offsets = csr->offsets.data();
  NodeId* adjacency = csr->adjacency.data();
  EdgeId* incident = csr->incident.data();
  ex.for_each(0, tasks, [&](std::uint64_t t) {
    std::uint32_t* head = heads.row(t);
    const auto [lo, hi] = task_range(t, tasks, m);
    for (std::uint64_t id = lo; id < hi; ++id) {
      const Edge& e = edges[id];
      const std::uint64_t upper = offsets[e.u + 1] - first[e.u + 1] + id;
      adjacency[upper] = e.v;
      incident[upper] = id;
      const std::uint64_t lower = offsets[e.v] + head[e.v]++;
      adjacency[lower] = e.u;
      incident[lower] = id;
    }
  });

  GraphExtent part;
  part.node_begin = 0;
  part.node_end = n;
  part.edge_begin = 0;
  part.edge_end = m;
  part.slot_begin = 0;
  part.slot_end = deg_sum;
  part.offsets = csr->offsets.data();
  part.adjacency = adjacency;
  part.incident = incident;
  part.edges = csr->edges.data();
  return from_extents(n, m, max_degree, {part}, std::move(csr));
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

std::vector<Edge> canonical_edges(NodeId n, const std::vector<Edge>& edges,
                                  const exec::Executor& ex) {
  const std::uint64_t m = edges.size();
  const std::uint64_t tasks = counting_tasks(ex, m, n);

  // Stable counting sort by the lower endpoint. Edge-parallel: check each
  // edge and count it in its task's histogram.
  TaskCounts<std::uint64_t> cursor(tasks, n);
  ex.for_each(0, tasks, [&](std::uint64_t t) {
    std::uint64_t* count = cursor.zeroed_row(t);
    const auto [lo, hi] = task_range(t, tasks, m);
    for (std::uint64_t i = lo; i < hi; ++i) {
      const Edge& e = edges[i];
      DMPC_CHECK_MSG(e.u != e.v, "self-loops are not supported");
      DMPC_CHECK_MSG(e.u < n && e.v < n, "edge endpoint out of range");
      ++count[std::min(e.u, e.v)];
    }
  });
  // Node-parallel: the counts become offsets within each bucket, in task
  // order; a serial prefix sum over the totals places the buckets.
  std::vector<std::uint64_t> first(static_cast<std::size_t>(n) + 1, 0);
  ex.for_each(
      0, n,
      [&](std::uint64_t u) { first[u + 1] = cursor.scan(u); },
      kNodeGrain);
  for (NodeId u = 0; u < n; ++u) first[u + 1] += first[u];
  std::vector<Edge> out(m);
  ex.for_each(0, tasks, [&](std::uint64_t t) {
    std::uint64_t* next = cursor.row(t);
    const auto [lo, hi] = task_range(t, tasks, m);
    for (std::uint64_t i = lo; i < hi; ++i) {
      const NodeId u = std::min(edges[i].u, edges[i].v);
      const NodeId v = std::max(edges[i].u, edges[i].v);
      out[first[u] + next[u]++] = {u, v};
    }
  });

  // Node-parallel: sort each bucket by v and drop its repeats; the spent
  // cursors' first row keeps the distinct counts. Then pack the buckets in
  // order (a no-op unless something was dropped).
  std::uint64_t* kept = cursor.row(0);
  ex.for_each(
      0, n,
      [&](std::uint64_t u) {
        const auto begin = out.begin() + static_cast<std::ptrdiff_t>(first[u]);
        const auto end =
            out.begin() + static_cast<std::ptrdiff_t>(first[u + 1]);
        std::sort(begin, end,
                  [](const Edge& a, const Edge& b) { return a.v < b.v; });
        kept[u] = static_cast<std::uint64_t>(std::unique(begin, end) - begin);
      },
      kNodeGrain);
  std::uint64_t size = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (first[u] != size) {
      std::copy_n(out.begin() + static_cast<std::ptrdiff_t>(first[u]),
                  kept[u], out.begin() + static_cast<std::ptrdiff_t>(size));
    }
    size += kept[u];
  }
  out.resize(size);
  return out;
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
