#include "graph/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/parse_error.hpp"

namespace dmpc::graph {
namespace {

using parse::clip;
using parse::require_u64;

std::string errno_detail() {
  const int err = errno;
  return err != 0 ? std::strerror(err) : "unknown error";
}

/// A whitespace-delimited token of the current line: a view into the line
/// buffer and its 1-based column.
struct Field {
  std::string_view text;
  std::uint64_t column = 0;
};

/// Split `line` on spaces/tabs exactly as parse::tokenize does, without
/// allocating: stores the first three tokens in `out` and returns the total
/// token count.
std::size_t split_fields(std::string_view line, Field (&out)[3]) {
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) {
      if (count < 3) {
        out[count] = {line.substr(start, i - start),
                      static_cast<std::uint64_t>(start) + 1};
      }
      ++count;
    }
  }
  return count;
}

/// Where each accepted edge of read_edge_list came from, for the duplicate
/// diagnostic. Most edge lines directly follow the previous edge line and
/// start at column 1; only edges breaking that pattern are recorded, the
/// rest are implied by the nearest earlier mark.
class EdgeOrigins {
 public:
  void add(std::uint64_t index, std::uint64_t line, std::uint64_t column) {
    if (line != next_line_ || column != 1) {
      marks_.push_back({index, line, column});
    }
    next_line_ = line + 1;
  }

  /// {line, column} of the edge with input index `index`.
  std::pair<std::uint64_t, std::uint64_t> at(std::uint64_t index) const {
    // The first edge is always marked (no line is numbered 0).
    const auto it = std::prev(std::upper_bound(
        marks_.begin(), marks_.end(), index,
        [](std::uint64_t i, const Mark& mark) { return i < mark.index; }));
    if (it->index == index) return {it->line, it->column};
    return {it->line + (index - it->index), 1};
  }

 private:
  struct Mark {
    std::uint64_t index, line, column;
  };
  std::vector<Mark> marks_;
  std::uint64_t next_line_ = 0;
};

/// Input index of the first edge that repeats an earlier one
/// (orientation-insensitive), or edges.size() if all are distinct: the
/// minimum over groups of equal canonical edges of each group's
/// second-smallest index.
std::size_t first_repeat(const std::vector<Edge>& edges) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint64_t lo = std::min(edges[i].u, edges[i].v);
    const std::uint64_t hi = std::max(edges[i].u, edges[i].v);
    keyed[i] = {(lo << 32) | hi, i};
  }
  std::sort(keyed.begin(), keyed.end());
  std::size_t first = edges.size();
  for (std::size_t i = 1; i < keyed.size(); ++i) {
    if (keyed[i].first == keyed[i - 1].first) {
      first = std::min(first, keyed[i].second);
    }
  }
  return first;
}

}  // namespace

void scan_edge_list(
    std::istream& in, const EdgeListLimits& limits,
    const std::function<void(const EdgeListHeader&)>& on_header,
    const std::function<void(NodeId, NodeId, std::uint64_t, std::uint64_t)>&
        on_edge) {
  std::string line;
  std::uint64_t line_no = 0;
  bool header_seen = false;
  NodeId n = 0;
  std::uint64_t declared_m = 0;
  std::uint64_t data_lines = 0;
  Field toks[3];
  while (std::getline(in, line)) {
    ++line_no;
    if (line.size() > limits.max_line_bytes) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "line exceeds " + std::to_string(limits.max_line_bytes) +
                           " byte limit",
                       line_no);
    }
    std::string_view text(line);
    if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
    text = text.substr(0, text.find('#'));
    const std::size_t count = split_fields(text, toks);
    if (count == 0) continue;  // blank/comment line
    if (count != 2) {
      const Field& shown = count > 2 ? toks[2] : toks[0];
      throw ParseError(
          ParseErrorCode::kMalformedLine,
          "expected exactly two tokens, found " + std::to_string(count),
          line_no, shown.column, clip(shown.text));
    }
    const std::uint64_t a = require_u64(toks[0].text, toks[0].column, line_no);
    const std::uint64_t b = require_u64(toks[1].text, toks[1].column, line_no);
    if (!header_seen) {
      header_seen = true;
      // First data line is the "n m" header.
      if (a == 0 || a >= kNoNode) {
        throw ParseError(ParseErrorCode::kBadHeader,
                         "node count must be in [1, 2^32 - 2]", line_no,
                         toks[0].column, clip(toks[0].text));
      }
      if (a > limits.max_nodes) {
        throw ParseError(ParseErrorCode::kLimitExceeded,
                         "declared node count exceeds cap of " +
                             std::to_string(limits.max_nodes),
                         line_no, toks[0].column, clip(toks[0].text));
      }
      if (b > limits.max_edges) {
        throw ParseError(ParseErrorCode::kLimitExceeded,
                         "declared edge count exceeds cap of " +
                             std::to_string(limits.max_edges),
                         line_no, toks[1].column, clip(toks[1].text));
      }
      n = static_cast<NodeId>(a);
      declared_m = b;
      on_header(EdgeListHeader{n, declared_m});
      continue;
    }
    ++data_lines;
    if (data_lines > limits.max_edges) {
      throw ParseError(
          ParseErrorCode::kLimitExceeded,
          "edge count exceeds cap of " + std::to_string(limits.max_edges),
          line_no);
    }
    if (a >= n) {
      throw ParseError(ParseErrorCode::kOutOfRange,
                       "edge endpoint out of declared range [0, " +
                           std::to_string(n) + ")",
                       line_no, toks[0].column, clip(toks[0].text));
    }
    if (b >= n) {
      throw ParseError(ParseErrorCode::kOutOfRange,
                       "edge endpoint out of declared range [0, " +
                           std::to_string(n) + ")",
                       line_no, toks[1].column, clip(toks[1].text));
    }
    if (a == b) {
      if (limits.duplicates == DuplicatePolicy::kDedupe) continue;
      throw ParseError(ParseErrorCode::kSelfLoop, "self-loop edge", line_no,
                       toks[0].column, clip(toks[0].text));
    }
    on_edge(static_cast<NodeId>(a), static_cast<NodeId>(b), line_no,
            toks[0].column);
  }
  if (in.bad()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "read failure: " + errno_detail(), line_no);
  }
  if (!header_seen) {
    throw ParseError(ParseErrorCode::kBadHeader, "empty edge list input");
  }
  if (limits.check_edge_count && data_lines != declared_m) {
    throw ParseError(ParseErrorCode::kCountMismatch,
                     "header declares " + std::to_string(declared_m) +
                         " edges but input contains " +
                         std::to_string(data_lines),
                     line_no);
  }
}

Graph read_edge_list(std::istream& in, const EdgeListLimits& limits) {
  const bool reject = limits.duplicates == DuplicatePolicy::kReject;
  NodeId n = 0;
  std::vector<Edge> edges;  // input order
  EdgeOrigins origins;
  // Duplicates are found by sorting, after the scan, but are reported as if
  // each edge were checked on arrival: the first edge (in input order) that
  // repeats an earlier one, ahead of any error on a later line.
  const auto throw_if_duplicate = [&] {
    const std::size_t i = first_repeat(edges);
    if (i == edges.size()) return;
    const auto [line_no, column] = origins.at(i);
    const std::uint64_t lo = std::min(edges[i].u, edges[i].v);
    const std::uint64_t hi = std::max(edges[i].u, edges[i].v);
    throw ParseError(ParseErrorCode::kDuplicateEdge,
                     "duplicate edge {" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "}",
                     line_no, column);
  };
  try {
    scan_edge_list(
        in, limits,
        [&](const EdgeListHeader& header) {
          n = header.n;
          // Reserve only a bounded prefix: allocation must track bytes
          // actually read, never an adversarial header.
          edges.reserve(static_cast<std::size_t>(
              std::min<std::uint64_t>(header.declared_m, 1ull << 20)));
        },
        [&](NodeId a, NodeId b, std::uint64_t line_no, std::uint64_t column) {
          if (reject) origins.add(edges.size(), line_no, column);
          edges.push_back({a, b});
        });
  } catch (const ParseError&) {
    if (reject) throw_if_duplicate();
    throw;
  }
  // from_edges canonicalizes, sorts and drops repeats, which is all kDedupe
  // asks. kReject keeps the input order for the diagnostic and pays for a
  // witness search only when from_edges dropped something.
  if (!reject) return Graph::from_edges(n, std::move(edges));
  Graph g = Graph::from_edges(n, edges);
  if (g.num_edges() != edges.size()) throw_if_duplicate();
  return g;
}

Graph read_edge_list_file(const std::string& path,
                          const EdgeListLimits& limits) {
  errno = 0;
  std::ifstream in(path);
  if (!in.good()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "cannot open '" + path + "' for reading: " +
                         errno_detail());
  }
  return read_edge_list(in, limits);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) out << e.u << ' ' << e.v << '\n';
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  errno = 0;
  std::ofstream out(path);
  if (!out.good()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "cannot open '" + path + "' for writing: " +
                         errno_detail());
  }
  write_edge_list(g, out);
  out.flush();
  if (!out.good()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "write failure on '" + path + "': " + errno_detail());
  }
}

}  // namespace dmpc::graph
