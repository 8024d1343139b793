#include "graph/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "exec/parallel.hpp"
#include "support/check.hpp"
#include "support/default_init.hpp"
#include "support/parse_error.hpp"

namespace dmpc::graph {
namespace {

using parse::clip;
using parse::require_u64;

/// Bytes per scan chunk of read_edge_list: enough lines per pool task to
/// amortize its dispatch, small enough that a few threads stay balanced on
/// inputs of a few MB.
constexpr std::size_t kChunkBytes = std::size_t{1} << 18;

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

/// A line holding exactly two numeric tokens.
struct Pair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  Field first;
  Field second;
};

/// The checks every line gets, in order: the line-length cap, then — after
/// a trailing '\r' and any '#' comment are dropped — exactly two tokens,
/// each a u64. Returns false for a blank or comment line. Allocation-free:
/// the tokens are views into `line`.
bool parse_pair(std::string_view line, std::uint64_t line_no,
                const EdgeListLimits& limits, Pair* out) {
  if (line.size() > limits.max_line_bytes) {
    throw ParseError(ParseErrorCode::kLimitExceeded,
                     "line exceeds " + std::to_string(limits.max_line_bytes) +
                         " byte limit",
                     line_no);
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  line = line.substr(0, line.find('#'));
  Field toks[3];
  const std::size_t count = split_fields(line, toks);
  if (count == 0) return false;
  if (count != 2) {
    const Field& shown = count > 2 ? toks[2] : toks[0];
    throw ParseError(
        ParseErrorCode::kMalformedLine,
        "expected exactly two tokens, found " + std::to_string(count),
        line_no, shown.column, clip(shown.text));
  }
  out->a = require_u64(toks[0].text, toks[0].column, line_no);
  out->b = require_u64(toks[1].text, toks[1].column, line_no);
  out->first = toks[0];
  out->second = toks[1];
  return true;
}

/// The first data line is the "n m" header.
EdgeListHeader check_header(const Pair& pair, std::uint64_t line_no,
                            const EdgeListLimits& limits) {
  if (pair.a == 0 || pair.a >= kNoNode) {
    throw ParseError(ParseErrorCode::kBadHeader,
                     "node count must be in [1, 2^32 - 2]", line_no,
                     pair.first.column, clip(pair.first.text));
  }
  if (pair.a > limits.max_nodes) {
    throw ParseError(ParseErrorCode::kLimitExceeded,
                     "declared node count exceeds cap of " +
                         std::to_string(limits.max_nodes),
                     line_no, pair.first.column, clip(pair.first.text));
  }
  if (pair.b > limits.max_edges) {
    throw ParseError(ParseErrorCode::kLimitExceeded,
                     "declared edge count exceeds cap of " +
                         std::to_string(limits.max_edges),
                     line_no, pair.second.column, clip(pair.second.text));
  }
  return EdgeListHeader{static_cast<NodeId>(pair.a), pair.b};
}

/// The checks on an edge line after the edge cap: both endpoints below n,
/// then no self-loop. Returns false for a self-loop dropped under kDedupe.
bool check_edge(const Pair& pair, NodeId n, std::uint64_t line_no,
                const EdgeListLimits& limits) {
  const auto check_range = [&](std::uint64_t value, const Field& field) {
    if (value >= n) {
      throw ParseError(ParseErrorCode::kOutOfRange,
                       "edge endpoint out of declared range [0, " +
                           std::to_string(n) + ")",
                       line_no, field.column, clip(field.text));
    }
  };
  check_range(pair.a, pair.first);
  check_range(pair.b, pair.second);
  if (pair.a == pair.b) {
    if (limits.duplicates == DuplicatePolicy::kDedupe) return false;
    throw ParseError(ParseErrorCode::kSelfLoop, "self-loop edge", line_no,
                     pair.first.column, clip(pair.first.text));
  }
  return true;
}

/// Lines of a stream, as std::getline delivers them.
class StreamLines {
 public:
  explicit StreamLines(std::istream& in) : in_(in) {}

  bool next(std::string_view* line) {
    if (!std::getline(in_, buffer_)) return false;
    *line = buffer_;
    return true;
  }

 private:
  std::istream& in_;
  std::string buffer_;
};

/// Lines of a byte range, split as std::getline splits a stream: at each
/// '\n', plus a last line when the range does not end in one.
struct BufferLines {
  std::string_view rest;

  bool next(std::string_view* line) {
    if (rest.empty()) return false;
    const std::size_t end = rest.find('\n');
    *line = rest.substr(0, end);
    rest.remove_prefix(end == std::string_view::npos ? rest.size() : end + 1);
    return true;
  }
};

/// How far a scan got: the number of its last line, and the data lines
/// (lines after the header with two numeric tokens) it counted toward the
/// edge cap.
struct ScanPos {
  std::uint64_t line = 0;
  std::uint64_t data_lines = 0;
};

/// The header: the first line of `lines` that is not blank or a comment.
/// Returns nullopt when there is none.
template <typename Lines>
std::optional<EdgeListHeader> scan_header(Lines& lines,
                                          const EdgeListLimits& limits,
                                          std::uint64_t& line_no) {
  std::string_view line;
  Pair pair;
  while (lines.next(&line)) {
    ++line_no;
    if (parse_pair(line, line_no, limits, &pair)) {
      return check_header(pair, line_no, limits);
    }
  }
  return std::nullopt;
}

/// The lines after the header. A line counts toward the edge cap (at most
/// `data_cap` of them) once it parses as two numbers, before its endpoints
/// are checked. on_edge(a, b, line, column) receives every accepted edge.
template <typename Lines, typename OnEdge>
void scan_edges(Lines& lines, NodeId n, const EdgeListLimits& limits,
                std::uint64_t data_cap, ScanPos& pos, OnEdge&& on_edge) {
  std::string_view line;
  Pair pair;
  while (lines.next(&line)) {
    ++pos.line;
    if (!parse_pair(line, pos.line, limits, &pair)) continue;
    if (++pos.data_lines > data_cap) {
      throw ParseError(
          ParseErrorCode::kLimitExceeded,
          "edge count exceeds cap of " + std::to_string(limits.max_edges),
          pos.line);
    }
    if (!check_edge(pair, n, pos.line, limits)) continue;
    on_edge(static_cast<NodeId>(pair.a), static_cast<NodeId>(pair.b),
            pos.line, pair.first.column);
  }
}

/// The checks after the last line: a header exists, and (unless disabled)
/// declares as many edges as there were data lines.
void check_totals(const std::optional<EdgeListHeader>& header,
                  const EdgeListLimits& limits, const ScanPos& pos) {
  if (!header) {
    throw ParseError(ParseErrorCode::kBadHeader, "empty edge list input");
  }
  if (limits.check_edge_count && pos.data_lines != header->declared_m) {
    throw ParseError(ParseErrorCode::kCountMismatch,
                     "header declares " + std::to_string(header->declared_m) +
                         " edges but input contains " +
                         std::to_string(pos.data_lines),
                     pos.line);
  }
}

/// Where each accepted edge of a chunk came from, for the duplicate
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

  /// {line, column} of the edge with index `index`.
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
std::size_t first_repeat(std::span<const Edge> edges) {
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

/// A run of whole lines after the header, scanned by one pool task.
struct Chunk {
  std::string_view text;
  std::uint64_t lines = 0;      ///< Lines in `text`.
  std::uint64_t line_base = 0;  ///< Lines before the chunk.
  std::uint64_t slot = 0;       ///< Its first slot in the edge array.
  ScanPos pos;                  ///< Where its scan stopped.
  std::uint64_t kept = 0;       ///< Edges it accepted before `error`.
  EdgeOrigins origins;          ///< Their lines and columns (kReject only).
  std::optional<ParseError> error;  ///< Its first error, if any.
};

/// Cut `text` into chunks of at least `chunk_bytes` bytes (the last may be
/// shorter), each running to the end of the line it would end in.
std::vector<Chunk> cut_chunks(std::string_view text, std::size_t chunk_bytes) {
  std::vector<Chunk> chunks;
  while (!text.empty()) {
    const std::size_t end =
        text.find('\n', std::min(chunk_bytes, text.size()) - 1);
    const std::size_t size = end == std::string_view::npos ? text.size()
                                                           : end + 1;
    chunks.emplace_back().text = text.substr(0, size);
    text.remove_prefix(size);
  }
  return chunks;
}

/// Scan `chunk` from its first line, writing its edges at
/// `edges + chunk.slot` on. Its first error is kept in the chunk, with the
/// position and edge count as of that error.
void scan_chunk(Chunk& chunk, NodeId n, const EdgeListLimits& limits,
                std::uint64_t data_cap, Edge* edges) {
  const bool reject = limits.duplicates == DuplicatePolicy::kReject;
  BufferLines lines{chunk.text};
  Edge* out = edges + chunk.slot;
  ScanPos pos{chunk.line_base, 0};
  std::uint64_t kept = 0;
  chunk.origins = EdgeOrigins();
  chunk.error.reset();
  try {
    scan_edges(lines, n, limits, data_cap, pos,
               [&](NodeId a, NodeId b, std::uint64_t line_no,
                   std::uint64_t column) {
                 if (reject) chunk.origins.add(kept, line_no, column);
                 out[kept++] = {a, b};
               });
  } catch (const ParseError& e) {
    chunk.error.emplace(e);
  }
  chunk.pos = pos;
  chunk.kept = kept;
}

/// Every byte of `in`, up to its end or a read failure. A failure sets
/// `*error` to its errno detail and keeps only the complete lines before
/// it, which are the lines std::getline would have delivered. `size_hint`
/// (the file size, or 0) sizes the first read; past it the buffer doubles.
/// The buffer is not zeroed first: the read fills it.
DefaultInitVector<char> read_all(std::istream& in, std::uint64_t size_hint,
                                 std::string* error) {
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  DefaultInitVector<char> text(static_cast<std::size_t>(size_hint));
  std::size_t size = 0;
  while (true) {
    if (size == text.size()) {
      if (in.peek() == std::char_traits<char>::eof()) break;
      text.resize(std::max(2 * text.size(), text.size() + kBlock));
    }
    in.read(text.data() + size,
            static_cast<std::streamsize>(text.size() - size));
    size += static_cast<std::size_t>(in.gcount());
    if (!in) break;
  }
  if (in.bad()) {
    *error = errno_detail();
    const std::size_t end = std::string_view(text.data(), size).rfind('\n');
    size = end == std::string_view::npos ? 0 : end + 1;
  }
  text.resize(size);
  return text;
}

/// read_edge_list over `text`, the input's bytes up to a read failure whose
/// errno detail is `read_error` (empty when the read succeeded).
///
/// The header is found serially; the lines after it are cut into chunks
/// that pool tasks scan into one edge array, each into its own slots (sized
/// by a first pass that counts the chunk's lines). A serial pass in input
/// order then packs the slots and picks the first error: the lowest
/// chunk's, unless the edge cap falls earlier, which it finds by rescanning
/// the chunk where the global data-line count crosses the cap.
Graph read_text(DefaultInitVector<char> text, const std::string& read_error,
                const EdgeListLimits& limits, const exec::Executor& ex,
                std::size_t chunk_bytes) {
  const bool reject = limits.duplicates == DuplicatePolicy::kReject;
  std::optional<EdgeListHeader> header;
  std::vector<Chunk> chunks;
  std::vector<Edge> edges;  // input order
  ScanPos pos;
  std::uint64_t kept = 0;
  // Duplicates are found by sorting, after the scan, but are reported as if
  // each edge were checked on arrival: the first edge (in input order) that
  // repeats an earlier one, ahead of any error on a later line.
  const auto throw_if_duplicate = [&] {
    const std::span<const Edge> scanned(edges.data(), kept);
    const std::size_t i = first_repeat(scanned);
    if (i == scanned.size()) return;
    // Chunks are packed in order, so the first one ending past i holds it.
    const Chunk& chunk = *std::find_if(
        chunks.begin(), chunks.end(),
        [&](const Chunk& c) { return i < c.slot + c.kept; });
    const auto [line_no, column] = chunk.origins.at(i - chunk.slot);
    const std::uint64_t lo = std::min(edges[i].u, edges[i].v);
    const std::uint64_t hi = std::max(edges[i].u, edges[i].v);
    throw ParseError(ParseErrorCode::kDuplicateEdge,
                     "duplicate edge {" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "}",
                     line_no, column);
  };
  try {
    BufferLines lines{std::string_view(text.data(), text.size())};
    header = scan_header(lines, limits, pos.line);
    if (header) {
      chunks = cut_chunks(lines.rest, std::max<std::size_t>(chunk_bytes, 1));
      // A data line takes at least 4 bytes ("0 1\n", the input's last line
      // 3), so a chunk's slots are bounded by its bytes as well as by its
      // lines: the edge array stays within 2 bytes per input byte.
      std::vector<std::uint64_t> slots(chunks.size());
      ex.for_each(0, chunks.size(), [&](std::uint64_t c) {
        Chunk& chunk = chunks[c];
        const std::string_view t = chunk.text;
        chunk.lines = static_cast<std::uint64_t>(
                          std::count(t.begin(), t.end(), '\n')) +
                      (t.back() == '\n' ? 0 : 1);
        slots[c] = std::min<std::uint64_t>(chunk.lines, (t.size() + 1) / 4);
      });
      std::uint64_t line_base = pos.line;
      std::uint64_t slot = 0;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        chunks[c].line_base = line_base;
        chunks[c].slot = slot;
        line_base += chunks[c].lines;
        slot += slots[c];
      }
      edges.resize(slot);
      ex.for_each(0, chunks.size(), [&](std::uint64_t c) {
        scan_chunk(chunks[c], header->n, limits, limits.max_edges,
                   edges.data());
      });
      for (Chunk& chunk : chunks) {
        if (chunk.pos.data_lines > limits.max_edges - pos.data_lines) {
          scan_chunk(chunk, header->n, limits,
                     limits.max_edges - pos.data_lines, edges.data());
        }
        if (chunk.slot != kept) {
          std::copy_n(edges.begin() + chunk.slot, chunk.kept,
                      edges.begin() + kept);
          chunk.slot = kept;
        }
        kept += chunk.kept;
        pos.line = chunk.pos.line;
        pos.data_lines += chunk.pos.data_lines;
        if (chunk.error) throw *chunk.error;
      }
    }
    if (!read_error.empty()) {
      throw ParseError(ParseErrorCode::kIoError, "read failure: " + read_error,
                       pos.line);
    }
    check_totals(header, limits, pos);
  } catch (const ParseError&) {
    if (reject) throw_if_duplicate();
    throw;
  }
  // The CSR arrays are built after the text is released, and the input
  // order is released once the canonical list exists. canonical_edges drops
  // repeats, which is all kDedupe asks; kReject keeps the input order for
  // the diagnostic and pays for a witness search only when something was
  // dropped.
  DefaultInitVector<char>().swap(text);
  edges.resize(kept);
  const NodeId n = header->n;
  std::vector<Edge> canonical = canonical_edges(n, edges, ex);
  if (reject && canonical.size() != edges.size()) throw_if_duplicate();
  std::vector<Edge>().swap(edges);
  chunks.clear();
  return Graph::from_canonical(n, std::move(canonical), ex);
}

}  // namespace

void scan_edge_list(
    std::istream& in, const EdgeListLimits& limits,
    const std::function<void(const EdgeListHeader&)>& on_header,
    const std::function<void(NodeId, NodeId, std::uint64_t, std::uint64_t)>&
        on_edge) {
  StreamLines lines(in);
  ScanPos pos;
  const std::optional<EdgeListHeader> header =
      scan_header(lines, limits, pos.line);
  if (header) {
    on_header(*header);
    scan_edges(lines, header->n, limits, limits.max_edges, pos, on_edge);
  }
  if (in.bad()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "read failure: " + errno_detail(), pos.line);
  }
  check_totals(header, limits, pos);
}

Graph read_edge_list(std::istream& in, const EdgeListLimits& limits) {
  return read_edge_list(in, limits, exec::Executor::serial());
}

Graph read_edge_list(std::istream& in, const EdgeListLimits& limits,
                     const exec::Executor& ex) {
  return detail::read_edge_list(in, limits, ex, kChunkBytes);
}

Graph read_edge_list_file(const std::string& path,
                          const EdgeListLimits& limits) {
  return read_edge_list_file(path, limits, exec::Executor::serial());
}

Graph read_edge_list_file(const std::string& path,
                          const EdgeListLimits& limits,
                          const exec::Executor& ex) {
  errno = 0;
  std::ifstream in(path);
  if (!in.good()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "cannot open '" + path + "' for reading: " +
                         errno_detail());
  }
  // A regular file is read in one piece; anything else (or a failed stat)
  // grows the buffer as bytes arrive.
  std::error_code ec;
  const bool regular = std::filesystem::is_regular_file(path, ec);
  const std::uintmax_t size =
      regular ? std::filesystem::file_size(path, ec) : 0;
  std::string read_error;
  DefaultInitVector<char> text = read_all(in, ec ? 0 : size, &read_error);
  return read_text(std::move(text), read_error, limits, ex, kChunkBytes);
}

namespace detail {

Graph read_edge_list(std::istream& in, const EdgeListLimits& limits,
                     const exec::Executor& ex, std::size_t chunk_bytes) {
  std::string read_error;
  DefaultInitVector<char> text = read_all(in, 0, &read_error);
  return read_text(std::move(text), read_error, limits, ex, chunk_bytes);
}

}  // namespace detail

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
