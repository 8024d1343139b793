// Immutable undirected graph in CSR form, viewed through storage extents.
//
// Nodes are 0..n-1. Edges are stored once in canonical (u < v) order and
// assigned stable EdgeIds; the adjacency arrays additionally carry, for each
// (node, neighbor) slot, the EdgeId of the connecting edge, so algorithms
// that work on edges (matching, line-graph simulation) can translate between
// the two views in O(1).
//
// A Graph does not own its arrays. It is a view over one or more
// `GraphExtent`s — contiguous node/edge ranges whose CSR slices live in
// memory owned by a storage backend (`mpc::Storage`). The in-memory build
// path (`from_edges`) produces a single extent over heap vectors; the
// out-of-core path (`mpc::MmapShardStorage`) produces one extent per mapped
// shard. All accessors return identical values for identical logical graphs
// regardless of how the extents are cut, so every algorithm above this seam
// is storage-agnostic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

namespace dmpc::exec {
class Executor;
}

namespace dmpc::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint64_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
/// Sentinel for "no edge".
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// One contiguous slice of the CSR representation: nodes
/// [node_begin, node_end), their adjacency/incident slots
/// [slot_begin, slot_end), and canonical edges [edge_begin, edge_end).
/// `offsets` holds node_end - node_begin + 1 entries with *global* slot
/// values (offsets[0] == slot_begin), so extents can be concatenated without
/// rebasing. Pointers are non-owning; the Graph's residency handle keeps the
/// backing memory (heap vectors or mmap'd shards) alive.
struct GraphExtent {
  NodeId node_begin = 0;
  NodeId node_end = 0;
  EdgeId edge_begin = 0;
  EdgeId edge_end = 0;
  std::uint64_t slot_begin = 0;
  std::uint64_t slot_end = 0;
  const std::uint64_t* offsets = nullptr;  ///< node span + 1, global values.
  const NodeId* adjacency = nullptr;       ///< slot span.
  const EdgeId* incident = nullptr;        ///< slot span.
  const Edge* edges = nullptr;             ///< edge span, canonical order.
};

/// Read-only range over all canonical edges of a Graph in EdgeId order,
/// walking extents transparently. Forward iteration is pointer-bump within
/// an extent; random access falls back to the owning Graph's edge lookup.
class EdgeRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using pointer = const Edge*;
    using reference = const Edge&;

    iterator() = default;

    reference operator*() const { return *cur_; }
    pointer operator->() const { return cur_; }

    iterator& operator++() {
      ++cur_;
      if (cur_ == stop_) advance_part();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }

    friend bool operator==(const iterator& a, const iterator& b) {
      return a.cur_ == b.cur_ && a.part_ == b.part_;
    }

   private:
    friend class EdgeRange;
    iterator(const GraphExtent* part, const GraphExtent* parts_end)
        : part_(part), parts_end_(parts_end) {
      cur_ = stop_ = nullptr;
      advance_part_initial();
    }

    void advance_part_initial() {
      while (part_ != parts_end_) {
        if (part_->edge_end > part_->edge_begin) {
          cur_ = part_->edges;
          stop_ = part_->edges + (part_->edge_end - part_->edge_begin);
          return;
        }
        ++part_;
      }
      cur_ = stop_ = nullptr;
    }

    void advance_part() {
      ++part_;
      advance_part_initial();
    }

    const GraphExtent* part_ = nullptr;
    const GraphExtent* parts_end_ = nullptr;
    const Edge* cur_ = nullptr;
    const Edge* stop_ = nullptr;
  };

  EdgeRange() = default;
  EdgeRange(const GraphExtent* parts, std::size_t num_parts, EdgeId m)
      : parts_(parts), num_parts_(num_parts), m_(m) {}

  iterator begin() const { return iterator(parts_, parts_ + num_parts_); }
  iterator end() const {
    return iterator(parts_ + num_parts_, parts_ + num_parts_);
  }

  EdgeId size() const { return m_; }
  bool empty() const { return m_ == 0; }

  /// Element-wise equality (same edges in the same EdgeId order), regardless
  /// of how either side is cut into extents.
  friend bool operator==(const EdgeRange& a, const EdgeRange& b);
  friend bool operator==(const EdgeRange& a, const std::vector<Edge>& b);

 private:
  const GraphExtent* parts_ = nullptr;
  std::size_t num_parts_ = 0;
  EdgeId m_ = 0;
};

class Graph {
 public:
  Graph() = default;

  /// Build from an edge list. Self-loops are rejected; duplicate edges are
  /// collapsed. Node ids must be < n. The result is a single-extent graph
  /// whose arrays live on the heap (owned via the residency handle).
  static Graph from_edges(NodeId n, std::vector<Edge> edges);

  /// As above, validating/sorting/verifying on the given host executor. The
  /// resulting graph is byte-identical to the serial build for any executor.
  static Graph from_edges(NodeId n, std::vector<Edge> edges,
                          const exec::Executor& ex);

  /// Assemble a graph view over storage-owned extents. Extents must cover
  /// [0, n) nodes, [0, m) edges and [0, 2m) slots contiguously in order;
  /// `residency` keeps the backing memory alive for the view's lifetime.
  /// Checked with DMPC_CHECK (structural errors are programming bugs here —
  /// untrusted inputs are validated by the storage backend before this).
  static Graph from_extents(NodeId n, EdgeId m, std::uint32_t max_degree,
                            std::vector<GraphExtent> parts,
                            std::shared_ptr<const void> residency);

  NodeId num_nodes() const { return n_; }
  EdgeId num_edges() const { return m_; }

  std::uint32_t degree(NodeId v) const {
    const GraphExtent& p = part_for_node(v);
    const std::uint64_t i = v - p.node_begin;
    return static_cast<std::uint32_t>(p.offsets[i + 1] - p.offsets[i]);
  }

  std::uint32_t max_degree() const { return max_degree_; }

  /// Neighbors of v, sorted ascending.
  std::span<const NodeId> neighbors(NodeId v) const {
    const GraphExtent& p = part_for_node(v);
    const std::uint64_t i = v - p.node_begin;
    return {p.adjacency + (p.offsets[i] - p.slot_begin),
            p.adjacency + (p.offsets[i + 1] - p.slot_begin)};
  }

  /// EdgeIds incident to v, aligned with neighbors(v).
  std::span<const EdgeId> incident_edges(NodeId v) const {
    const GraphExtent& p = part_for_node(v);
    const std::uint64_t i = v - p.node_begin;
    return {p.incident + (p.offsets[i] - p.slot_begin),
            p.incident + (p.offsets[i + 1] - p.slot_begin)};
  }

  /// The canonical (u < v) endpoints of an edge.
  const Edge& edge(EdgeId e) const {
    const GraphExtent& p = part_for_edge(e);
    return p.edges[e - p.edge_begin];
  }

  /// All canonical edges, indexed by EdgeId.
  EdgeRange edges() const { return EdgeRange(parts_.data(), parts_.size(), m_); }

  /// The storage extents backing this view (one for in-memory graphs, one
  /// per shard for mapped graphs).
  std::span<const GraphExtent> extents() const { return parts_; }

  /// Binary search in the sorted adjacency of u.
  bool has_edge(NodeId u, NodeId v) const;

  /// EdgeId of {u, v}, or kNoEdge.
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// The endpoint of e that is not v (v must be an endpoint).
  NodeId other_endpoint(EdgeId e, NodeId v) const;

 private:
  const GraphExtent& part_for_node(NodeId v) const {
    if (parts_.size() == 1) return parts_.front();
    return *find_part_for_node(v);
  }
  const GraphExtent& part_for_edge(EdgeId e) const {
    if (parts_.size() == 1) return parts_.front();
    return *find_part_for_edge(e);
  }
  const GraphExtent* find_part_for_node(NodeId v) const;
  const GraphExtent* find_part_for_edge(EdgeId e) const;

  NodeId n_ = 0;
  EdgeId m_ = 0;
  std::uint32_t max_degree_ = 0;
  std::vector<GraphExtent> parts_;
  /// Opaque keep-alive for the extents' backing memory (heap CSR buffers or
  /// a storage backend's mappings). Copied graphs share residency.
  std::shared_ptr<const void> residency_;
};

/// Degree of every node restricted to edges whose mask bit is set
/// (node-parallel over incident edges); identical output for any executor.
std::vector<std::uint32_t> masked_degrees(const Graph& g,
                                          const std::vector<bool>& edge_mask,
                                          const exec::Executor& ex);

/// Degree of every node restricted to alive nodes (an edge counts iff both
/// endpoints are alive); identical output for any executor.
std::vector<std::uint32_t> alive_degrees(const Graph& g,
                                         const std::vector<bool>& alive,
                                         const exec::Executor& ex);

/// Number of edges with both endpoints alive; identical for any executor.
EdgeId alive_edge_count(const Graph& g, const std::vector<bool>& alive,
                        const exec::Executor& ex);

/// One Luby phase's local minima (§2.1, Algorithm 1) among `nodes`: the
/// live nodes with a live neighbor whose priority (key(v), v) is below every
/// live neighbor's, in the order of `nodes`. `key` is called only on live
/// nodes; ties break by id. Only nodes of `nodes` can win; their live
/// neighbors are compared against whether listed or not.
template <typename Nodes, typename Key>
std::vector<NodeId> winners(const Graph& g, const Nodes& nodes,
                            const std::vector<bool>& live, const Key& key) {
  std::vector<NodeId> out;
  for (const NodeId v : nodes) {
    if (!live[v]) continue;
    const std::uint64_t zv = key(v);
    bool is_min = true;
    bool has_live_neighbor = false;
    for (NodeId u : g.neighbors(v)) {
      if (!live[u]) continue;
      has_live_neighbor = true;
      const std::uint64_t zu = key(u);
      if (zu < zv || (zu == zv && u < v)) {
        is_min = false;
        break;
      }
    }
    if (is_min && has_live_neighbor) out.push_back(v);
  }
  return out;
}

/// winners over every node, with priorities z[v]; ascending.
std::vector<NodeId> winners(const Graph& g, const std::vector<bool>& live,
                            const std::vector<std::uint64_t>& z);

/// Clear every node of `nodes` and all of its neighbors in `alive`.
void remove_closed(const Graph& g, const std::vector<NodeId>& nodes,
                   std::vector<bool>& alive);

}  // namespace dmpc::graph
