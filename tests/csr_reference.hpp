// Test-local reference for the heap CSR build: canonicalize, comparison
// sort, drop repeats, then one serial scatter of every edge into both of its
// endpoints' rows in EdgeId order. The library (Graph::from_edges) builds
// the same arrays with counting sorts on an executor instead. Tests run both
// and compare every array.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace dmpc::testref {

/// The four CSR arrays and the maximum degree of a graph.
struct CsrArrays {
  std::vector<std::uint64_t> offsets;
  std::vector<graph::NodeId> adjacency;
  std::vector<graph::EdgeId> incident;
  std::vector<graph::Edge> edges;
  std::uint32_t max_degree = 0;

  friend bool operator==(const CsrArrays&, const CsrArrays&) = default;
};

inline CsrArrays sort_then_scatter(graph::NodeId n,
                                   std::vector<graph::Edge> edges) {
  for (graph::Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  CsrArrays csr;
  csr.edges = std::move(edges);
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const graph::Edge& e : csr.edges) {
    ++csr.offsets[e.u + 1];
    ++csr.offsets[e.v + 1];
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    csr.max_degree = std::max(
        csr.max_degree, static_cast<std::uint32_t>(csr.offsets[v + 1]));
    csr.offsets[v + 1] += csr.offsets[v];
  }
  csr.adjacency.resize(csr.offsets[n]);
  csr.incident.resize(csr.offsets[n]);
  std::vector<std::uint64_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  for (graph::EdgeId id = 0; id < csr.edges.size(); ++id) {
    const graph::Edge& e = csr.edges[id];
    csr.adjacency[cursor[e.u]] = e.v;
    csr.incident[cursor[e.u]++] = id;
    csr.adjacency[cursor[e.v]] = e.u;
    csr.incident[cursor[e.v]++] = id;
  }
  return csr;
}

/// The arrays behind a single-extent graph.
inline CsrArrays arrays_of(const graph::Graph& g) {
  const graph::GraphExtent& p = g.extents().front();
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  CsrArrays csr;
  csr.offsets.assign(p.offsets, p.offsets + n + 1);
  csr.adjacency.assign(p.adjacency, p.adjacency + 2 * m);
  csr.incident.assign(p.incident, p.incident + 2 * m);
  csr.edges.assign(p.edges, p.edges + m);
  csr.max_degree = g.max_degree();
  return csr;
}

}  // namespace dmpc::testref
