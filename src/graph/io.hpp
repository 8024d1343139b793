// Plain-text edge-list IO ("u v" per line, '#' comments, first data line is
// the "n m" header; ids must be < n).
//
// The reader is a hardened untrusted-input boundary: malformed input of any
// kind — truncated lines, non-numeric or overflowing tokens, an adversarial
// header declaring 2^63 edges, out-of-range endpoints, self-loops, duplicate
// edges, oversized lines — is reported as a typed, recoverable
// dmpc::ParseError (code + line/column + offending token), never a
// DMPC_CHECK assertion and never an unbounded allocation. Hard caps on
// n / m / line length are configurable via EdgeListLimits; allocation is
// always bounded by the bytes actually read, not by what the header claims.
//
// Every line goes through one allocation-free validator, whichever reader
// delivers it: scan_edge_list streams lines with std::getline (for
// out-of-core builders), read_edge_list reads the input into one buffer and
// scans it in newline-aligned chunks on the given executor. The graph and
// the diagnostics are identical for every executor and every chunk cut.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace dmpc::graph {

/// What to do with duplicate edges (and self-loops) in the input.
enum class DuplicatePolicy : std::uint8_t {
  kReject,  ///< Typed ParseError naming the first duplicate / self-loop.
  kDedupe,  ///< Silently keep the first occurrence, drop the rest.
};

/// Hard caps on untrusted edge-list input. Inputs exceeding a cap are
/// rejected with ParseErrorCode::kLimitExceeded before any allocation sized
/// by the offending value happens.
struct EdgeListLimits {
  /// Maximum accepted node count (header n). The graph's adjacency arrays
  /// are sized by n, so the default caps a 12-byte adversarial header at a
  /// ~2 GiB allocation rather than the full NodeId range (~34 GiB); raise
  /// it explicitly for genuinely larger inputs.
  std::uint64_t max_nodes = 1ull << 28;
  /// Maximum accepted edge count (header m and actual data lines).
  std::uint64_t max_edges = 1ull << 33;
  /// Maximum accepted line length in bytes.
  std::uint64_t max_line_bytes = 1ull << 20;
  DuplicatePolicy duplicates = DuplicatePolicy::kReject;
  /// Require the declared header m to equal the number of data lines.
  bool check_edge_count = true;
};

/// The "n m" header of an edge-list input, validated against the limits.
struct EdgeListHeader {
  NodeId n = 0;
  std::uint64_t declared_m = 0;
};

/// Streaming scan of a text edge list: the same hardened parse (header and
/// line validation, caps, out-of-range and self-loop rejection, count
/// checks, typed errors) as read_edge_list, but delivering callbacks instead
/// of materializing an edge vector, so out-of-core builders (shard_build)
/// can ingest inputs far larger than RAM. `on_edge(u, v, line, column)`
/// receives each validated data line in input order (u, v already
/// range-checked, u != v unless a kDedupe self-loop was dropped before the
/// call). Duplicate-edge detection is NOT performed here — it needs
/// per-node state; callers wanting kReject semantics detect duplicates
/// downstream (read_edge_list with the counting sort that builds its CSR,
/// shard_build at shard finalization). Lines are parsed in place, without
/// allocating.
void scan_edge_list(
    std::istream& in, const EdgeListLimits& limits,
    const std::function<void(const EdgeListHeader&)>& on_header,
    const std::function<void(NodeId, NodeId, std::uint64_t, std::uint64_t)>&
        on_edge);

/// Read an edge list. Throws dmpc::ParseError (derives CheckFailure) on any
/// malformed input; never aborts, never allocates proportionally to an
/// adversarial header. Under kReject the duplicate reported is the first
/// edge, in input order, that repeats an earlier one, and it wins over any
/// error on a later line — as if each edge were checked on arrival.
///
/// The scan and the CSR build (Graph::from_canonical over canonical_edges)
/// run on `ex`; the overloads without one run serially. The input buffer is
/// released before the CSR arrays are allocated.
Graph read_edge_list(std::istream& in, const EdgeListLimits& limits = {});
Graph read_edge_list(std::istream& in, const EdgeListLimits& limits,
                     const exec::Executor& ex);

/// Read from a file. Open and read failures carry errno context
/// (std::strerror) and are distinguished from parse failures by
/// ParseErrorCode::kIoError.
Graph read_edge_list_file(const std::string& path,
                          const EdgeListLimits& limits = {});
Graph read_edge_list_file(const std::string& path,
                          const EdgeListLimits& limits,
                          const exec::Executor& ex);

namespace detail {

/// read_edge_list with the scan cut into chunks of at least `chunk_bytes`
/// bytes, each running to the end of its last line. The result never
/// depends on the cut; tests and the edge-list fuzz driver pass tiny sizes
/// to put chunk seams between every pair of lines.
Graph read_edge_list(std::istream& in, const EdgeListLimits& limits,
                     const exec::Executor& ex, std::size_t chunk_bytes);

}  // namespace detail

void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

}  // namespace dmpc::graph
