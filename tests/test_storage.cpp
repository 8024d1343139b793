// The storage seam: shard format, streaming builder, and backends.
//
// The contract under test (docs/STORAGE.md): a shard directory written by
// shard_build, opened through MmapShardStorage, exposes *exactly* the graph
// Graph::from_edges builds from the same edge list — identical offsets,
// adjacency rows, incident EdgeIds, canonical edge order, stats, and solve
// results — while the manifest is an untrusted-input boundary rejecting
// every malformed byte with a typed ParseError.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "mpc/io_faults.hpp"
#include "mpc/shard_format.hpp"
#include "mpc/storage.hpp"
#include "mpc/storage_error.hpp"
#include "support/parse_error.hpp"

namespace dmpc::mpc {
namespace {

namespace fs = std::filesystem;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Fresh scratch directory under the system temp root, removed on scope
/// exit so failed assertions cannot poison later runs.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }
  std::string str(const std::string& child = {}) const {
    return child.empty() ? path_.string() : (path_ / child).string();
  }

 private:
  fs::path path_;
};

/// Every observable CSR byte must agree between the two views.
void expect_identical_graphs(const Graph& expected, const Graph& actual) {
  ASSERT_EQ(expected.num_nodes(), actual.num_nodes());
  ASSERT_EQ(expected.num_edges(), actual.num_edges());
  EXPECT_EQ(expected.max_degree(), actual.max_degree());
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    ASSERT_EQ(expected.degree(v), actual.degree(v)) << "node " << v;
    const auto en = expected.neighbors(v);
    const auto an = actual.neighbors(v);
    const auto ei = expected.incident_edges(v);
    const auto ai = actual.incident_edges(v);
    for (std::uint32_t i = 0; i < expected.degree(v); ++i) {
      ASSERT_EQ(en[i], an[i]) << "adjacency of node " << v << " slot " << i;
      ASSERT_EQ(ei[i], ai[i]) << "incident of node " << v << " slot " << i;
    }
  }
  for (EdgeId e = 0; e < expected.num_edges(); ++e) {
    ASSERT_EQ(expected.edge(e).u, actual.edge(e).u) << "edge " << e;
    ASSERT_EQ(expected.edge(e).v, actual.edge(e).v) << "edge " << e;
  }
  EXPECT_TRUE(expected.edges() == actual.edges());
}

void expect_round_trip(const Graph& g, std::uint64_t shard_words,
                       const char* label) {
  TempDir dir(std::string("dmpc_storage_roundtrip_") + label);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  ShardBuildOptions options;
  options.shard_words = shard_words;
  const auto stats = shard_build(dir.str("g.txt"), dir.str("shards"), options);
  EXPECT_EQ(stats.n, g.num_nodes()) << label;
  EXPECT_EQ(stats.m, g.num_edges()) << label;
  const auto storage = MmapShardStorage::open(dir.str("shards"));
  EXPECT_EQ(storage->stats().shards, stats.shards) << label;
  expect_identical_graphs(g, storage->graph());

  // Derived stats and solve artifacts must agree too: the mmap view feeds
  // the same algorithms the heap CSR does.
  const auto ex = exec::Executor::with_threads(1);
  const auto expected_stats = graph::compute_stats(g, ex);
  const auto actual_stats = graph::compute_stats(storage->graph(), ex);
  EXPECT_EQ(expected_stats.triangles, actual_stats.triangles) << label;
  EXPECT_EQ(expected_stats.components, actual_stats.components) << label;
  const Solver solver;
  const auto expected_mis = solver.mis(g);
  const auto actual_mis = solver.mis(*storage);
  EXPECT_EQ(expected_mis.in_set, actual_mis.in_set) << label;
  EXPECT_EQ(to_json(expected_mis.report).dump(),
            to_json(actual_mis.report).dump())
      << label;
}

TEST(ShardRoundTrip, SingleShard) {
  expect_round_trip(graph::gnm(800, 6400, 3), /*shard_words=*/0, "single");
}

TEST(ShardRoundTrip, ManyShards) {
  expect_round_trip(graph::gnm(800, 6400, 3), /*shard_words=*/1024, "many");
}

TEST(ShardRoundTrip, PowerLawSkewedDegrees) {
  expect_round_trip(graph::power_law(500, 3000, 2.2, 9), /*shard_words=*/2048,
                    "power_law");
}

TEST(ShardRoundTrip, StarHighDegreeHub) {
  // One node owns every edge: the greedy packer must handle a single node
  // whose row exceeds the target shard size.
  expect_round_trip(graph::star(300), /*shard_words=*/64, "star");
}

TEST(ShardRoundTrip, EdgelessGraph) {
  TempDir dir("dmpc_storage_edgeless");
  std::ofstream(dir.str("g.txt")) << "5 0\n";
  const auto stats = shard_build(dir.str("g.txt"), dir.str("shards"));
  EXPECT_EQ(stats.n, 5u);
  EXPECT_EQ(stats.m, 0u);
  const auto storage = MmapShardStorage::open(dir.str("shards"));
  EXPECT_EQ(storage->graph().num_nodes(), 5u);
  EXPECT_EQ(storage->graph().num_edges(), 0u);
  EXPECT_EQ(storage->graph().max_degree(), 0u);
}

TEST(ShardBuild, RejectsDuplicateEdges) {
  TempDir dir("dmpc_storage_dup");
  std::ofstream(dir.str("g.txt")) << "4 3\n0 1\n2 3\n1 0\n";
  try {
    shard_build(dir.str("g.txt"), dir.str("shards"));
    FAIL() << "duplicate edge accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kDuplicateEdge);
  }
}

TEST(ShardBuild, RejectsDedupePolicy) {
  TempDir dir("dmpc_storage_policy");
  std::ofstream(dir.str("g.txt")) << "2 1\n0 1\n";
  ShardBuildOptions options;
  options.limits.duplicates = graph::DuplicatePolicy::kDedupe;
  EXPECT_THROW(shard_build(dir.str("g.txt"), dir.str("shards"), options),
               CheckFailure);
}

TEST(ShardBuild, MissingInputIsIoError) {
  TempDir dir("dmpc_storage_noinput");
  try {
    shard_build(dir.str("absent.txt"), dir.str("shards"));
    FAIL() << "missing input accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kIoError);
  }
}

// ---- Manifest codec ----

ShardManifest build_manifest_fixture(const std::string& dir_name,
                                     std::string* shard_dir) {
  static TempDir dir("dmpc_storage_manifest_fixture");
  const std::string out = dir.str(dir_name);
  const Graph g = graph::gnm(200, 1600, 5);
  graph::write_edge_list_file(g, dir.str(dir_name + ".txt"));
  ShardBuildOptions options;
  options.shard_words = 1024;
  shard_build(dir.str(dir_name + ".txt"), out, options);
  std::ifstream in(out + "/" + kManifestFileName, std::ios::binary);
  std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (shard_dir != nullptr) *shard_dir = out;
  return parse_shard_manifest(bytes.data(), bytes.size());
}

TEST(ShardManifestCodec, EncodeParseRoundTrip) {
  const ShardManifest manifest = build_manifest_fixture("codec", nullptr);
  EXPECT_EQ(manifest.n, 200u);
  EXPECT_EQ(manifest.m, 1600u);
  EXPECT_GT(manifest.shards.size(), 1u);
  const auto bytes = encode_shard_manifest(manifest);
  const ShardManifest reparsed =
      parse_shard_manifest(bytes.data(), bytes.size());
  EXPECT_EQ(reparsed.n, manifest.n);
  EXPECT_EQ(reparsed.m, manifest.m);
  EXPECT_EQ(reparsed.max_degree, manifest.max_degree);
  EXPECT_EQ(reparsed.shard_words, manifest.shard_words);
  ASSERT_EQ(reparsed.shards.size(), manifest.shards.size());
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    EXPECT_EQ(reparsed.shards[i].node_begin, manifest.shards[i].node_begin);
    EXPECT_EQ(reparsed.shards[i].node_end, manifest.shards[i].node_end);
    EXPECT_EQ(reparsed.shards[i].edge_begin, manifest.shards[i].edge_begin);
    EXPECT_EQ(reparsed.shards[i].edge_end, manifest.shards[i].edge_end);
    EXPECT_EQ(reparsed.shards[i].slot_begin, manifest.shards[i].slot_begin);
    EXPECT_EQ(reparsed.shards[i].slot_end, manifest.shards[i].slot_end);
    EXPECT_EQ(reparsed.shards[i].file_bytes, manifest.shards[i].file_bytes);
  }
}

ParseErrorCode parse_code(const std::vector<unsigned char>& bytes,
                          const graph::EdgeListLimits& limits = {}) {
  try {
    parse_shard_manifest(bytes.data(), bytes.size(), limits);
  } catch (const ParseError& e) {
    return e.code();
  }
  ADD_FAILURE() << "manifest accepted";
  return ParseErrorCode::kIoError;
}

TEST(ShardManifestCodec, RejectsMalformedBytes) {
  const ShardManifest manifest = build_manifest_fixture("reject", nullptr);
  const auto valid = encode_shard_manifest(manifest);

  auto corrupt = valid;
  corrupt[0] = 'X';  // magic
  EXPECT_EQ(parse_code(corrupt), ParseErrorCode::kBadHeader);

  corrupt = valid;
  corrupt[8] = 99;  // version
  EXPECT_EQ(parse_code(corrupt), ParseErrorCode::kBadHeader);

  corrupt = valid;
  corrupt[12] = 1;  // flags must be zero
  EXPECT_EQ(parse_code(corrupt), ParseErrorCode::kBadHeader);

  corrupt = valid;
  corrupt.resize(corrupt.size() - 1);  // truncated entry table
  EXPECT_EQ(parse_code(corrupt), ParseErrorCode::kCountMismatch);

  corrupt = valid;
  corrupt.resize(kManifestHeaderBytes - 8);  // shorter than the header
  EXPECT_EQ(parse_code(corrupt), ParseErrorCode::kBadHeader);

  corrupt = valid;
  corrupt[32] += 1;  // total_slots != 2m
  EXPECT_EQ(parse_code(corrupt), ParseErrorCode::kCountMismatch);

  // First entry's node_begin bumped: ranges no longer tile [0, n).
  corrupt = valid;
  corrupt[kManifestHeaderBytes] += 1;
  EXPECT_EQ(parse_code(corrupt), ParseErrorCode::kCountMismatch);

  // Inverted node range in the first entry (node_end < node_begin).
  corrupt = valid;
  std::uint64_t inverted = manifest.shards[0].node_end + 1;
  std::memcpy(corrupt.data() + kManifestHeaderBytes, &inverted, 8);
  EXPECT_NE(parse_code(corrupt), ParseErrorCode::kIoError);
}

TEST(ShardManifestCodec, EnforcesEdgeListLimits) {
  const ShardManifest manifest = build_manifest_fixture("limits", nullptr);
  const auto valid = encode_shard_manifest(manifest);
  graph::EdgeListLimits tight;
  tight.max_nodes = manifest.n - 1;
  EXPECT_EQ(parse_code(valid, tight), ParseErrorCode::kShardLimitExceeded);
  tight = {};
  tight.max_edges = manifest.m - 1;
  EXPECT_EQ(parse_code(valid, tight), ParseErrorCode::kShardLimitExceeded);
  // At exactly the caps the manifest is accepted.
  tight = {};
  tight.max_nodes = manifest.n;
  tight.max_edges = manifest.m;
  EXPECT_NO_THROW(parse_shard_manifest(valid.data(), valid.size(), tight));
}

// ---- MmapShardStorage open-time validation ----

TEST(MmapShardStorage, RejectsTruncatedShardFile) {
  TempDir dir("dmpc_storage_truncated");
  const Graph g = graph::gnm(200, 1600, 6);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  ShardBuildOptions options;
  options.shard_words = 1024;
  shard_build(dir.str("g.txt"), dir.str("shards"), options);
  fs::resize_file(dir.path() / "shards" / shard_file_name(1), 40);
  try {
    MmapShardStorage::open(dir.str("shards"));
    FAIL() << "truncated shard accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kCountMismatch);
  }
}

TEST(MmapShardStorage, RejectsCorruptShardMagic) {
  TempDir dir("dmpc_storage_badmagic");
  const Graph g = graph::gnm(100, 400, 6);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  shard_build(dir.str("g.txt"), dir.str("shards"));
  {
    std::fstream f(dir.path() / "shards" / shard_file_name(0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.put('Z');
  }
  try {
    MmapShardStorage::open(dir.str("shards"));
    FAIL() << "corrupt shard magic accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kBadHeader);
  }
}

TEST(MmapShardStorage, RejectsCorruptOffsets) {
  TempDir dir("dmpc_storage_badoffsets");
  const Graph g = graph::gnm(100, 400, 6);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  shard_build(dir.str("g.txt"), dir.str("shards"));
  {
    // Scribble over the first offset (bytes 16..24): the slice is no longer
    // anchored at slot_begin.
    std::fstream f(dir.path() / "shards" / shard_file_name(0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    const std::uint64_t garbage = ~0ull;
    f.write(reinterpret_cast<const char*>(&garbage), 8);
  }
  try {
    MmapShardStorage::open(dir.str("shards"));
    FAIL() << "corrupt offsets accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kCountMismatch);
  }
}

TEST(MmapShardStorage, RejectsMissingDirectory) {
  try {
    MmapShardStorage::open("/nonexistent/dmpc_shards");
    FAIL() << "missing directory accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kIoError);
  }
}

TEST(MmapShardStorage, GraphOutlivesStorage) {
  TempDir dir("dmpc_storage_outlive");
  const Graph g = graph::gnm(100, 400, 6);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  shard_build(dir.str("g.txt"), dir.str("shards"));
  Graph view;
  {
    const auto storage = MmapShardStorage::open(dir.str("shards"));
    view = storage->graph();
  }
  // The residency handle keeps the mappings alive after the Storage dies.
  expect_identical_graphs(g, view);
}

// ---- open_storage dispatch & host stats ----

TEST(OpenStorage, DispatchesOnBackend) {
  TempDir dir("dmpc_storage_dispatch");
  const Graph g = graph::gnm(100, 400, 6);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  shard_build(dir.str("g.txt"), dir.str("shards"));

  StorageOptions memory;
  const auto mem = open_storage(memory, dir.str("g.txt"));
  EXPECT_EQ(mem->backend(), StorageBackend::kMemory);
  EXPECT_EQ(mem->stats().shards, 1u);
  EXPECT_GT(mem->stats().bytes_total, 0u);

  StorageOptions mmap_opts;
  mmap_opts.backend = StorageBackend::kMmap;
  mmap_opts.shard_dir = dir.str("shards");
  const auto mapped = open_storage(mmap_opts, "ignored");
  EXPECT_EQ(mapped->backend(), StorageBackend::kMmap);
  expect_identical_graphs(mem->graph(), mapped->graph());
}

TEST(OpenStorage, BackendNames) {
  EXPECT_STREQ(storage_backend_name(StorageBackend::kMemory), "memory");
  EXPECT_STREQ(storage_backend_name(StorageBackend::kMmap), "mmap");
}

// ---- Solver seam ----

TEST(SolverStorage, OpenStorageHonorsOptions) {
  TempDir dir("dmpc_storage_solver");
  const Graph g = graph::gnm(300, 2400, 6);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  shard_build(dir.str("g.txt"), dir.str("shards"));

  SolveOptions options;
  options.storage.backend = StorageBackend::kMmap;
  options.storage.shard_dir = dir.str("shards");
  const Solver solver(options);
  const auto storage = solver.open_storage("ignored");
  EXPECT_EQ(storage->backend(), StorageBackend::kMmap);

  const auto from_storage = solver.maximal_matching(*storage);
  const auto from_graph = Solver().maximal_matching(g);
  EXPECT_EQ(from_storage.matching, from_graph.matching);
  EXPECT_EQ(to_json(from_storage.report).dump(),
            to_json(from_graph.report).dump());

  // The storage solve's host section carries the residency gauges.
  const auto host = obs::to_json_section(solver.metrics_snapshot(),
                                         obs::MetricSection::kHost,
                                         /*include_zero=*/true)
                        .dump();
  EXPECT_NE(host.find("\"storage/bytes_mapped\""), std::string::npos);
  EXPECT_NE(host.find("\"storage/shards\""), std::string::npos);
}

// ---- Integrity: checksummed shards, fault injection, recovery ladder ----

/// XOR one byte of `path` at `offset` (from the start; negative = from the
/// end). Payload bytes at the file tail are adjacency words — corrupting
/// them never trips the structural offsets validation, so the checksum layer
/// is the only line of defense.
void corrupt_byte(const fs::path& path, std::int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  if (offset < 0) {
    f.seekg(0, std::ios::end);
    offset += static_cast<std::int64_t>(f.tellg());
  }
  f.seekg(offset);
  char byte = 0;
  f.get(byte);
  f.seekp(offset);
  f.put(static_cast<char>(byte ^ 0x1));
}

/// Build a shard directory for a deterministic reference graph.
Graph build_shards(const TempDir& dir, std::uint64_t shard_words = 1024) {
  const Graph g = graph::gnm(200, 1600, 7);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  ShardBuildOptions options;
  options.shard_words = shard_words;
  shard_build(dir.str("g.txt"), dir.str("shards"), options);
  return g;
}

TEST(StorageIntegrity, BuilderStampsV2ChecksumsThatVerify) {
  TempDir dir("dmpc_integrity_v2");
  build_shards(dir);
  const auto storage =
      MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kOpen);
  EXPECT_EQ(storage->manifest().version, 2u);
  EXPECT_TRUE(storage->manifest().has_checksums());
  for (const ShardEntry& e : storage->manifest().shards) {
    EXPECT_NE(e.crc64, 0u);
  }
  EXPECT_EQ(storage->io_recovery().shards_verified,
            storage->manifest().shards.size());

  const IntegrityReport report = storage->verify_integrity();
  EXPECT_EQ(report.status, IntegrityReport::Status::kVerified);
  EXPECT_EQ(report.shards_checked, storage->manifest().shards.size());
}

TEST(StorageIntegrity, SingleCorruptByteIsDetectedAtOpen) {
  TempDir dir("dmpc_integrity_corrupt");
  build_shards(dir);
  corrupt_byte(dir.path() / "shards" / shard_file_name(1), -1);
  try {
    MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kOpen);
    FAIL() << "corrupt shard byte accepted under verify=open";
  } catch (const StorageError& e) {
    // The mapped bytes fail, the quarantine re-read of the same corrupt
    // file fails too: the shard is reported quarantine-exhausted.
    EXPECT_EQ(e.code(), StorageErrorCode::kQuarantined);
    EXPECT_EQ(e.shard(), 1u);
  }
}

TEST(StorageIntegrity, CorruptManifestDigestIsDetected) {
  TempDir dir("dmpc_integrity_manifest");
  build_shards(dir);
  // Flip a byte of the stored digest itself: parsing still succeeds
  // (structure is intact), but verification must fail on the manifest.
  corrupt_byte(dir.path() / "shards" / kManifestFileName, -1);
  try {
    MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kOpen);
    FAIL() << "corrupt manifest digest accepted under verify=open";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kChecksumMismatch);
    EXPECT_EQ(e.shard(), kManifestShard);
  }
}

TEST(StorageIntegrity, VerifyOffTrustsBytesButIntegrityPassFails) {
  TempDir dir("dmpc_integrity_offmode");
  build_shards(dir);
  corrupt_byte(dir.path() / "shards" / shard_file_name(0), -1);
  // Legacy behavior: verify=off opens the directory (structure is valid).
  const auto storage = MmapShardStorage::open(dir.str("shards"));
  // But an explicit integrity pass pinpoints the bad shard, never throws.
  const IntegrityReport report = storage->verify_integrity();
  EXPECT_EQ(report.status, IntegrityReport::Status::kFailed);
  EXPECT_EQ(report.bad_shard, 0u);
  EXPECT_FALSE(report.detail.empty());
  EXPECT_GT(storage->io_recovery().checksum_failures, 0u);
}

TEST(StorageIntegrity, V1ManifestOpensAndReportsUnverified) {
  TempDir dir("dmpc_integrity_v1");
  const Graph g = build_shards(dir);
  // Rewrite the manifest as version 1: 56-byte entries, no digest.
  const fs::path manifest_path = dir.path() / "shards" / kManifestFileName;
  std::vector<unsigned char> bytes;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  const ShardManifest manifest =
      parse_shard_manifest(bytes.data(), bytes.size());
  std::vector<unsigned char> v1(bytes.begin(),
                                bytes.begin() + kManifestHeaderBytes);
  const std::uint32_t version = 1;
  std::memcpy(v1.data() + 8, &version, sizeof(version));
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    const unsigned char* entry =
        bytes.data() + kManifestHeaderBytes + i * kManifestEntryBytes;
    v1.insert(v1.end(), entry, entry + kManifestEntryBytesV1);
  }
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(v1.data()),
              static_cast<std::streamsize>(v1.size()));
  }
  // verify=open on a v1 directory is a no-op (nothing checksummed), the
  // graph is served as before, and the integrity pass says "unverified".
  const auto storage =
      MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kOpen);
  EXPECT_FALSE(storage->manifest().has_checksums());
  expect_identical_graphs(g, storage->graph());
  const IntegrityReport report = storage->verify_integrity();
  EXPECT_EQ(report.status, IntegrityReport::Status::kUnverified);
}

TEST(StorageIntegrity, TransientInjectedFaultsRecoverIdentically) {
  TempDir dir("dmpc_integrity_transient");
  build_shards(dir);
  const auto clean = MmapShardStorage::open(dir.str("shards"));

  IoFaultPlan plan;
  plan.add({IoFaultKind::kEio, /*shard=*/0, kAccessOpen, /*delay=*/1,
            /*attempts=*/2});
  plan.add({IoFaultKind::kShortRead, /*shard=*/1, kAccessOpen, /*delay=*/1,
            /*attempts=*/1});
  plan.add({IoFaultKind::kSlow, /*shard=*/2, kAccessOpen, /*delay=*/3,
            /*attempts=*/1});
  plan.add({IoFaultKind::kEio, kManifestShard, kAccessOpen, /*delay=*/1,
            /*attempts=*/1});
  const auto faulted =
      MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kOff, plan);
  expect_identical_graphs(clean->graph(), faulted->graph());

  const IoRecoveryStats& ledger = faulted->io_recovery();
  EXPECT_EQ(ledger.io_faults_injected, 5u);
  EXPECT_EQ(ledger.retries, 4u);         // 2 eio + 1 short_read + 1 eio
  EXPECT_GE(ledger.backoff_units, 3u);   // slow delay + retry backoff
  EXPECT_EQ(ledger.quarantined_shards, 0u);
  EXPECT_EQ(ledger.degraded, 0u);
}

TEST(StorageIntegrity, InjectedCorruptionHealsOnRetry) {
  TempDir dir("dmpc_integrity_heal");
  build_shards(dir);
  IoFaultPlan plan;
  plan.add({IoFaultKind::kCorrupt, /*shard=*/0, kAccessVerify, /*delay=*/1,
            /*attempts=*/1});
  const auto storage =
      MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kOpen, plan);
  const IoRecoveryStats& ledger = storage->io_recovery();
  EXPECT_EQ(ledger.checksum_failures, 1u);
  EXPECT_EQ(ledger.retries, 1u);
  EXPECT_EQ(ledger.quarantined_shards, 0u);
  EXPECT_EQ(ledger.shards_verified, storage->manifest().shards.size());
}

TEST(StorageIntegrity, PersistentInjectedCorruptionQuarantines) {
  TempDir dir("dmpc_integrity_quarantine");
  const Graph g = build_shards(dir);
  // The mapped view of shard 0 reads corrupt on every in-budget verify
  // attempt (initial + max_retries retries = 4 with the default budget),
  // but the quarantine re-read (a different access ordinal) is clean: the
  // ladder must fall through to the heap copy and then verify it.
  IoFaultPlan plan;
  plan.add({IoFaultKind::kCorrupt, /*shard=*/0, kAccessVerify, /*delay=*/1,
            /*attempts=*/4});
  const auto storage =
      MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kOpen, plan);
  const IoRecoveryStats& ledger = storage->io_recovery();
  EXPECT_EQ(ledger.quarantined_shards, 1u);
  EXPECT_GE(ledger.checksum_failures, 4u);
  // The quarantined heap copy serves byte-identical content.
  expect_identical_graphs(g, storage->graph());
  const auto quarantined_mis = Solver().mis(*storage);
  const auto clean_mis = Solver().mis(g);
  EXPECT_EQ(quarantined_mis.in_set, clean_mis.in_set);
  // Residency accounting includes the heap copy.
  EXPECT_GT(storage->stats().resident_bytes, 0u);
}

TEST(StorageIntegrity, FallbackDegradesToMemoryBackend) {
  TempDir dir("dmpc_integrity_fallback");
  const Graph g = build_shards(dir);
  IoFaultPlan plan;
  plan.add({IoFaultKind::kMapFail, /*shard=*/0, kAccessOpen, /*delay=*/1,
            /*attempts=*/mpc::RecoveryOptions::kMaxRetries + 1});

  StorageOptions options;
  options.backend = StorageBackend::kMmap;
  options.shard_dir = dir.str("shards");
  // Without a fallback the exhausted ladder surfaces the typed error.
  try {
    open_storage(options, dir.str("g.txt"), {}, plan);
    FAIL() << "exhausted map failures accepted";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kMapFailed);
  }
  // With fallback=memory the same failure degrades to the text re-read.
  options.fallback = FallbackMode::kMemory;
  const auto degraded = open_storage(options, dir.str("g.txt"), {}, plan);
  EXPECT_EQ(degraded->backend(), StorageBackend::kMemory);
  EXPECT_EQ(degraded->io_recovery().degraded, 1u);
  expect_identical_graphs(g, degraded->graph());
  const auto fallback_mis = Solver().mis(*degraded);
  EXPECT_EQ(fallback_mis.in_set, Solver().mis(g).in_set);
  EXPECT_EQ(fallback_mis.report.recovery.storage.degraded, 1u);
}

TEST(StorageIntegrity, ParanoidGateCatchesPostOpenCorruption) {
  TempDir dir("dmpc_integrity_paranoid");
  build_shards(dir);
  const auto storage =
      MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kParanoid);
  // The directory was clean at open; corrupt it afterwards. The shared page
  // cache makes the write visible through the existing mapping.
  corrupt_byte(dir.path() / "shards" / shard_file_name(0), -1);
  EXPECT_THROW(Solver().mis(*storage), StorageError);
  EXPECT_THROW(Solver().maximal_matching(*storage), StorageError);
}

TEST(StorageIntegrity, CertifyGateFailsStorageIntegrityClaim) {
  TempDir dir("dmpc_integrity_certify");
  build_shards(dir);
  // verify=off: the open trusts the bytes, but checked mode must still
  // refuse to compute from them — the gate runs before the solve.
  corrupt_byte(dir.path() / "shards" / shard_file_name(0), -1);
  const auto storage = MmapShardStorage::open(dir.str("shards"));
  SolveOptions options;
  options.certify = verify::CertifyMode::kAnswer;
  const Solver solver(options);
  const std::function<void()> solves[] = {
      [&] { solver.mis(*storage); },
      [&] { solver.maximal_matching(*storage); }};
  for (const auto& solve : solves) {
    try {
      solve();
      FAIL() << "corrupt backend certified";
    } catch (const verify::CertificationError& e) {
      ASSERT_EQ(e.certificate().claims.size(), 1u);
      EXPECT_EQ(e.certificate().claims[0].claim,
                verify::Claim::kStorageIntegrity);
      EXPECT_EQ(e.certificate().claims[0].verdict, verify::Verdict::kFail);
      EXPECT_TRUE(e.certificate().claims[0].has_witness);
    }
  }
}

TEST(StorageIntegrity, CertifiedCleanStorageSolveCarriesPassClaim) {
  TempDir dir("dmpc_integrity_certify_pass");
  build_shards(dir);
  const auto storage =
      MmapShardStorage::open(dir.str("shards"), {}, VerifyMode::kOpen);
  SolveOptions options;
  options.certify = verify::CertifyMode::kAnswer;
  const Solver solver(options);
  for (const SolveReport& report : {solver.mis(*storage).report,
                                    solver.maximal_matching(*storage).report}) {
    EXPECT_TRUE(report.certificate.ok());
    const auto& claim = report.certificate.claims.back();
    EXPECT_EQ(claim.claim, verify::Claim::kStorageIntegrity);
    EXPECT_EQ(claim.verdict, verify::Verdict::kPass);
    EXPECT_EQ(claim.checked, storage->manifest().shards.size());
  }
}

TEST(StorageIntegrity, CrashedBuilderLeavesNoOpenableDirectory) {
  TempDir dir("dmpc_integrity_crash");
  const Graph g = graph::gnm(200, 1600, 7);
  graph::write_edge_list_file(g, dir.str("g.txt"));
  ShardBuildOptions options;
  options.shard_words = 1024;
  options.abort_before_manifest = [] {
    throw std::runtime_error("simulated builder crash");
  };
  EXPECT_THROW(shard_build(dir.str("g.txt"), dir.str("shards"), options),
               std::runtime_error);
  // Shard files exist, but the manifest-last commit protocol means the
  // partial directory can never be opened (missing manifest = kIoError).
  EXPECT_TRUE(fs::exists(dir.path() / "shards" / shard_file_name(0)));
  try {
    MmapShardStorage::open(dir.str("shards"));
    FAIL() << "partial (crashed) build accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ParseErrorCode::kIoError);
  }
}

TEST(IoFaultPlanText, ParsePrintRoundTrip) {
  const std::string text =
      "# storage chaos schedule\n"
      "eio shard=0 access=0 attempts=2\n"
      "short_read shard=1 access=0\n"
      "slow shard=2 access=1 delay=5\n"
      "corrupt shard=manifest access=1\n"
      "map_fail shard=3 access=0 attempts=4\n";
  const IoFaultPlan plan = IoFaultPlan::parse(text);
  ASSERT_EQ(plan.events().size(), 5u);
  EXPECT_EQ(plan.events()[0].kind, IoFaultKind::kEio);
  EXPECT_EQ(plan.events()[0].attempts, 2u);
  EXPECT_EQ(plan.events()[2].delay, 5u);
  EXPECT_EQ(plan.events()[3].shard, kManifestShard);
  EXPECT_TRUE(plan.check().empty());
  // The printed form re-parses to the same plan.
  const IoFaultPlan reparsed = IoFaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
  ASSERT_EQ(reparsed.events().size(), plan.events().size());
}

TEST(IoFaultPlanText, RejectsMalformedLines) {
  const auto code = [](const std::string& text) -> std::string {
    try {
      IoFaultPlan::parse(text);
    } catch (const ParseError& e) {
      return parse_error_code_name(e.code());
    }
    return "";
  };
  EXPECT_EQ(code("explode shard=0 access=0\n"), "bad_token");
  EXPECT_EQ(code("eio shard=0 nonsense\n"), "malformed_line");
  EXPECT_EQ(code("eio shard=0 mode=7\n"), "bad_token");
  EXPECT_EQ(code("eio shard=x access=0\n"), "bad_token");
  EXPECT_EQ(code("eio shard=0 access=0 attempts=0\n"), "out_of_range");
  EXPECT_EQ(code("eio shard=0 access=0 attempts=999\n"), "out_of_range");
  EXPECT_EQ(code("slow shard=0 delay=0\n"), "out_of_range");
  EXPECT_EQ(code("eio access=0\n"), "");  // shard defaults to 0: admissible
}

TEST(StorageIntegrity, NamesAreStable) {
  EXPECT_STREQ(verify_mode_name(VerifyMode::kOff), "off");
  EXPECT_STREQ(verify_mode_name(VerifyMode::kOpen), "open");
  EXPECT_STREQ(verify_mode_name(VerifyMode::kParanoid), "paranoid");
  EXPECT_STREQ(fallback_mode_name(FallbackMode::kNone), "none");
  EXPECT_STREQ(fallback_mode_name(FallbackMode::kMemory), "memory");
  EXPECT_STREQ(storage_error_code_name(StorageErrorCode::kChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(storage_error_code_name(StorageErrorCode::kShortRead),
               "short_read");
  EXPECT_STREQ(storage_error_code_name(StorageErrorCode::kIoTransient),
               "io_transient");
  EXPECT_STREQ(storage_error_code_name(StorageErrorCode::kMapFailed),
               "map_failed");
  EXPECT_STREQ(storage_error_code_name(StorageErrorCode::kQuarantined),
               "quarantined");
}

}  // namespace
}  // namespace dmpc::mpc
