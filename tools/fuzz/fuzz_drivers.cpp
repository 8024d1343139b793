#include "fuzz_drivers.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/cli_options.hpp"
#include "api/status.hpp"
#include "graph/io.hpp"
#include "mpc/faults.hpp"
#include "mpc/io_faults.hpp"
#include "mpc/shard_format.hpp"
#include "obs/events.hpp"
#include "support/options.hpp"
#include "support/parse_error.hpp"

namespace dmpc::fuzz {
namespace {

// Small caps so the fuzzer explores the limit checks instead of timing out
// on genuinely huge (but well-formed) inputs.
graph::EdgeListLimits fuzz_limits(graph::DuplicatePolicy policy) {
  graph::EdgeListLimits limits;
  limits.max_nodes = 1u << 16;
  limits.max_edges = 1u << 16;
  limits.max_line_bytes = 1u << 12;
  limits.duplicates = policy;
  return limits;
}

/// The outcome of one edge-list read: the canonical edge list if accepted,
/// else the ParseError's code, location and text.
struct ReadOutcome {
  bool accepted = false;
  graph::NodeId n = 0;
  std::vector<graph::Edge> edges;
  ParseErrorCode code = ParseErrorCode::kIoError;
  std::uint64_t line = 0;
  std::uint64_t column = 0;
  std::string what;

  friend bool operator==(const ReadOutcome&, const ReadOutcome&) = default;
};

ReadOutcome rejected(const ParseError& e) {
  ReadOutcome out;
  out.code = e.code();
  out.line = e.line();
  out.column = e.column();
  out.what = e.what();
  return out;
}

/// Reference for read_edge_list: the streaming scan plus a hash-set check of
/// each edge as it arrives, so a repeated edge is reported at its own line,
/// ahead of any error on a later line.
ReadOutcome reference_read(const std::string& text,
                           const graph::EdgeListLimits& limits) {
  try {
    std::istringstream in(text);
    ReadOutcome out;
    std::unordered_set<std::uint64_t> seen;
    graph::scan_edge_list(
        in, limits,
        [&](const graph::EdgeListHeader& header) { out.n = header.n; },
        [&](graph::NodeId a, graph::NodeId b, std::uint64_t line,
            std::uint64_t column) {
          const graph::NodeId lo = std::min(a, b), hi = std::max(a, b);
          if (!seen.insert((std::uint64_t{lo} << 32) | hi).second) {
            if (limits.duplicates == graph::DuplicatePolicy::kDedupe) return;
            throw ParseError(ParseErrorCode::kDuplicateEdge,
                             "duplicate edge {" + std::to_string(lo) + ", " +
                                 std::to_string(hi) + "}",
                             line, column);
          }
          out.edges.push_back({lo, hi});
        });
    std::sort(out.edges.begin(), out.edges.end());
    out.accepted = true;
    return out;
  } catch (const ParseError& e) {
    return rejected(e);
  }
}

void read_one(const std::string& text, graph::DuplicatePolicy policy) {
  const graph::EdgeListLimits limits = fuzz_limits(policy);
  ReadOutcome got;
  try {
    std::istringstream in(text);
    const graph::Graph g = graph::read_edge_list(in, limits);
    got.accepted = true;
    got.n = g.num_nodes();
    got.edges.assign(g.edges().begin(), g.edges().end());
    // Accepted input must survive a write/re-read round trip unchanged in
    // shape. The re-read uses kReject: the writer never emits duplicates.
    std::ostringstream out;
    graph::write_edge_list(g, out);
    std::istringstream back(out.str());
    const graph::Graph g2 =
        graph::read_edge_list(back, fuzz_limits(graph::DuplicatePolicy::kReject));
    if (g2.num_nodes() != g.num_nodes() || g2.num_edges() != g.num_edges()) {
      __builtin_trap();
    }
  } catch (const ParseError& e) {
    // Typed rejection: the expected outcome for malformed input.
    got = rejected(e);
  }
  // The reader must accept and reject exactly what the reference does, with
  // the same graph or the same diagnostic.
  if (got != reference_read(text, limits)) __builtin_trap();
}

}  // namespace

int drive_edge_list(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  read_one(text, graph::DuplicatePolicy::kReject);
  read_one(text, graph::DuplicatePolicy::kDedupe);
  return 0;
}

int drive_fault_plan(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const mpc::FaultPlan plan = mpc::FaultPlan::parse(text);
    // An accepted plan must be internally consistent.
    if (!plan.check().empty()) __builtin_trap();
  } catch (const ParseError&) {
  }
  return 0;
}

int drive_cli_args(const std::uint8_t* data, std::size_t size) {
  // One argument per line, capped so a pathological input cannot allocate
  // an unbounded argv.
  constexpr std::size_t kMaxArgs = 64;
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::vector<std::string> argv_storage;
  std::istringstream lines(text);
  std::string line;
  while (argv_storage.size() < kMaxArgs && std::getline(lines, line)) {
    argv_storage.push_back(line);
  }
  std::vector<const char*> argv;
  argv.reserve(argv_storage.size() + 1);
  argv.push_back("dmpc");  // ArgParser skips argv[0]
  for (const std::string& arg : argv_storage) argv.push_back(arg.c_str());
  try {
    const ArgParser args(static_cast<int>(argv.size()), argv.data());
    (void)parse_solve_options(args);
  } catch (const ParseError&) {
  } catch (const OptionsError&) {
  }
  return 0;
}

int drive_shard_header(const std::uint8_t* data, std::size_t size) {
  // Same cap philosophy as fuzz_limits: small n/m ceilings steer the fuzzer
  // into the limit checks rather than huge well-formed declarations (the
  // parser's allocation is bounded by `size` regardless).
  graph::EdgeListLimits limits;
  limits.max_nodes = 1u << 16;
  limits.max_edges = 1u << 16;
  try {
    const mpc::ShardManifest manifest =
        mpc::parse_shard_manifest(data, size, limits);
    // An accepted manifest must survive an encode/re-parse round trip with
    // its totals intact. The encoder always emits the current (checksummed)
    // version, so a v1 input upgrades to v2 with zero shard checksums and a
    // freshly stamped digest; a v2 input must keep its checksums verbatim.
    const auto bytes = mpc::encode_shard_manifest(manifest);
    const mpc::ShardManifest back =
        mpc::parse_shard_manifest(bytes.data(), bytes.size(), limits);
    if (back.n != manifest.n || back.m != manifest.m ||
        back.shards.size() != manifest.shards.size()) {
      __builtin_trap();
    }
    if (back.version != mpc::kShardFormatVersion || !back.has_checksums()) {
      __builtin_trap();
    }
    if (back.digest != mpc::manifest_digest(bytes.data(), bytes.size())) {
      __builtin_trap();
    }
    for (std::size_t i = 0; i < back.shards.size(); ++i) {
      const std::uint64_t want =
          manifest.has_checksums() ? manifest.shards[i].crc64 : 0;
      if (back.shards[i].crc64 != want) __builtin_trap();
    }
  } catch (const ParseError&) {
  }
  return 0;
}

int drive_io_fault_plan(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const mpc::IoFaultPlan plan = mpc::IoFaultPlan::parse(text);
    // An accepted plan must be internally consistent, and its printed form
    // must re-parse to the same plan (print/parse is the identity on
    // admissible plans — the CLI round-trips --io-fault-plan files).
    if (!plan.check().empty()) __builtin_trap();
    const std::string printed = plan.to_string();
    const mpc::IoFaultPlan back = mpc::IoFaultPlan::parse(printed);
    if (back.events().size() != plan.events().size()) __builtin_trap();
    if (back.to_string() != printed) __builtin_trap();
  } catch (const ParseError&) {
  }
  // The non-throwing overload must agree with the throwing one.
  std::string error;
  (void)mpc::IoFaultPlan::parse(text, &error);
  return 0;
}

int drive_event_filter(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const obs::EventFilter filter = obs::parse_event_filter(text);
    // An accepted filter must be non-empty (the grammar rejects empty
    // lists) and survive the canonical print/re-parse round trip — the
    // contract event_filter_to_string documents.
    if (filter.mask() == 0) __builtin_trap();
    const std::string printed = obs::event_filter_to_string(filter);
    const obs::EventFilter back = obs::parse_event_filter(printed);
    if (back.mask() != filter.mask()) __builtin_trap();
    if (obs::event_filter_to_string(back) != printed) __builtin_trap();
  } catch (const OptionsError& e) {
    // Typed rejection: must carry the matching status code.
    if (e.status().code() != StatusCode::kInvalidEventFilter) __builtin_trap();
  }
  return 0;
}

}  // namespace dmpc::fuzz
