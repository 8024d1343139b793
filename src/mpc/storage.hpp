// The storage seam: who owns graph residency.
//
// Algorithms above this interface (sparsifiers, derand objectives, MIS /
// matching solvers, Certifier claims) pull neighbor ranges through
// graph::Graph accessors; a Graph is a view over `GraphExtent`s whose
// backing memory a Storage owns. Two backends:
//
//  - InMemoryStorage: today's behavior byte-for-byte — a heap CSR built by
//    Graph::from_edges (one extent).
//  - MmapShardStorage: the out-of-core path — a shard directory written by
//    shard_build (mpc/shard_format.hpp) is mapped read-only, one extent per
//    shard, and pages fault in on first touch. Peak RSS tracks the working
//    set, not the graph.
//
// The backend choice is host-side residency only: every kModel metric,
// report byte, and trace byte is identical across backends (proven by the
// storage axis of test_determinism_matrix). Backend observability (bytes
// mapped, shards, resident sample) is exported as kHost registry gauges.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "mpc/faults.hpp"
#include "mpc/io_faults.hpp"
#include "mpc/shard_format.hpp"
#include "mpc/storage_error.hpp"

namespace dmpc::mpc {

enum class StorageBackend : std::uint8_t {
  kMemory,  ///< Heap CSR (Graph::from_edges / read_edge_list).
  kMmap,    ///< Mapped shard directory (shard_build output).
};

/// Stable name ("memory", "mmap") for logs and CLI parsing.
const char* storage_backend_name(StorageBackend backend);

/// When shard checksums are re-computed against the manifest's CRC64s.
enum class VerifyMode : std::uint8_t {
  kOff,       ///< Trust the filesystem (legacy behavior, byte-identical).
  kOpen,      ///< Verify every shard eagerly at open, before the first solve.
  kParanoid,  ///< kOpen plus a re-verification when a solve attaches.
};

/// Stable name ("off", "open", "paranoid") for logs and CLI parsing.
const char* verify_mode_name(VerifyMode mode);

/// What open_storage does when the mmap backend fails with a StorageError.
enum class FallbackMode : std::uint8_t {
  kNone,    ///< Propagate the error (legacy behavior).
  kMemory,  ///< Degrade: re-read the text edge list into InMemoryStorage.
};

/// Stable name ("none", "memory") for logs and CLI parsing.
const char* fallback_mode_name(FallbackMode mode);

/// User-facing storage selection, carried by SolveOptions and the CLI
/// (--storage=memory|mmap --shard-dir=... --storage-verify=...
/// --storage-fallback=...).
struct StorageOptions {
  StorageBackend backend = StorageBackend::kMemory;
  /// Shard directory; required iff backend == kMmap.
  std::string shard_dir;
  /// Checksum policy for the mmap backend; ignored (no-op) for kMemory.
  VerifyMode verify = VerifyMode::kOff;
  /// Degradation policy when the mmap backend raises StorageError.
  FallbackMode fallback = FallbackMode::kNone;

  bool is_default() const {
    return backend == StorageBackend::kMemory && shard_dir.empty();
  }
};

/// Outcome of a whole-backend integrity pass (Storage::verify_integrity).
/// Feeds the Certifier's storage_integrity claim: kVerified -> pass,
/// kUnverified -> skipped (no checksums to check: in-memory backend or a v1
/// manifest), kFailed -> fail with the first bad shard as witness.
struct IntegrityReport {
  enum class Status : std::uint8_t { kVerified, kUnverified, kFailed };
  Status status = Status::kUnverified;
  std::uint64_t shards_checked = 0;  ///< Shards whose CRC64 matched.
  /// First failing shard (kManifestShard when the manifest digest failed or
  /// no shard is implicated).
  std::uint64_t bad_shard = kManifestShard;
  std::string detail;
};

/// Host-side residency snapshot. Never part of the model.
struct StorageStats {
  std::uint64_t bytes_total = 0;     ///< CSR bytes owned (heap or files).
  std::uint64_t shards = 0;          ///< Extent count (1 for in-memory).
  std::uint64_t resident_bytes = 0;  ///< Sampled residency (mincore / heap).
};

/// Owns graph residency and exposes the storage-agnostic Graph view.
class Storage {
 public:
  virtual ~Storage() = default;
  Storage() = default;
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// The graph view. Valid for the Storage's lifetime; the view (and its
  /// copies) also keeps the backing memory alive via its residency handle,
  /// so a Graph may safely outlive the Storage that produced it.
  virtual const graph::Graph& graph() const = 0;
  virtual StorageBackend backend() const = 0;
  /// Residency sampled at call time (kHost observability only).
  virtual StorageStats stats() const = 0;

  /// Re-verify the backend's checksums (with the recovery ladder engaged:
  /// retries, quarantine). Logically const — the graph content is unchanged
  /// even when a shard is quarantined into a heap copy — and default-
  /// kUnverified for backends without checksums. Never throws: persistent
  /// failures are reported as IntegrityReport::Status::kFailed.
  virtual IntegrityReport verify_integrity() const {
    IntegrityReport report;
    report.detail = "backend holds no checksummed shards";
    return report;
  }

  /// Verify mode this backend was opened with (kOff for backends that do
  /// not verify). The Solver re-verifies kParanoid backends at solve attach.
  virtual VerifyMode verify_mode() const { return VerifyMode::kOff; }

  /// Cumulative recovery ledger of this backend: everything the retry /
  /// quarantine / degrade ladder did since open. Serialized as the solve
  /// report's recovery.storage sub-block.
  const IoRecoveryStats& io_recovery() const { return io_ledger_; }
  /// Fold external recovery work (e.g. the failed open that degraded into
  /// this backend) into the ledger.
  void merge_io_recovery(const IoRecoveryStats& stats) const {
    io_ledger_.merge(stats);
  }

 protected:
  /// Mutable: recovery bookkeeping happens on logically-const paths
  /// (verify_integrity during a solve attach).
  mutable IoRecoveryStats io_ledger_;
};

/// Heap-resident backend wrapping an already-built Graph (cheap: a Graph is
/// a view sharing residency with its source).
class InMemoryStorage final : public Storage {
 public:
  explicit InMemoryStorage(graph::Graph g) : graph_(std::move(g)) {}

  const graph::Graph& graph() const override { return graph_; }
  StorageBackend backend() const override { return StorageBackend::kMemory; }
  StorageStats stats() const override;

 private:
  graph::Graph graph_;
};

/// Out-of-core backend over a shard directory. open() parses and fully
/// validates the manifest (typed ParseError on any defect; EdgeListLimits
/// caps via kShardLimitExceeded), maps every shard read-only, verifies each
/// shard's header, size, and offsets slice (anchored, monotone, max_degree
/// cross-check), and assembles the extent view.
///
/// Content integrity is policy: with `verify` kOpen/kParanoid the v2
/// manifest's CRC64s are re-computed per shard (plus the whole-manifest
/// digest) behind the recovery ladder — bounded exponential-backoff retries
/// for transient failures, then a per-shard quarantine (heap re-read served
/// as the extent), then a typed StorageError that open_storage can turn
/// into a whole-backend degradation. With kOff (the default) payloads are
/// trusted after structural validation, exactly as before — full content
/// verification on demand is what --certify's storage_integrity claim is
/// for. An `io_faults` plan deterministically injects host-I/O failures
/// into every access (mpc/io_faults.hpp).
class MmapShardStorage final : public Storage {
 public:
  static std::unique_ptr<MmapShardStorage> open(
      const std::string& dir, const graph::EdgeListLimits& limits = {},
      VerifyMode verify = VerifyMode::kOff, const IoFaultPlan& io_faults = {},
      const RecoveryOptions& recovery = {});

  const graph::Graph& graph() const override { return graph_; }
  StorageBackend backend() const override { return StorageBackend::kMmap; }
  StorageStats stats() const override;
  IntegrityReport verify_integrity() const override;
  VerifyMode verify_mode() const override { return verify_; }

  /// The parsed manifest ("unverified" v1 manifests report
  /// has_checksums() == false).
  const ShardManifest& manifest() const { return manifest_; }

 private:
  struct Mappings;
  MmapShardStorage() = default;

  /// The shard's bytes as currently served: quarantined heap copy if one
  /// exists, else the read-only mapping.
  const unsigned char* shard_bytes(std::uint64_t index) const;
  /// Fire scheduled io-fault events for attempt N of (shard, access);
  /// `corrupt` is set when a corruption event wants the caller to observe
  /// checksum-corrupted bytes.
  void fault_point(std::uint64_t shard, std::uint64_t access,
                   bool* corrupt) const;
  void verify_manifest_or_throw() const;
  void verify_shard_or_throw(std::uint64_t index) const;
  void quarantine_shard(std::uint64_t index) const;
  void rebuild_graph() const;

  mutable graph::Graph graph_;
  mutable std::shared_ptr<Mappings> mappings_;
  ShardManifest manifest_;
  std::vector<unsigned char> manifest_bytes_;
  std::string dir_;
  VerifyMode verify_ = VerifyMode::kOff;
  IoFaultPlan io_faults_;
  RecoveryOptions recovery_;
  /// Cumulative attempt counter per (shard, access): every retry of an
  /// access advances it, so plan events key deterministic schedules off it.
  mutable std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t>
      attempts_;
};

/// Open the backend selected by `options`: kMemory reads `input_path` as a
/// text edge list (read_edge_list_file), kMmap opens options.shard_dir
/// under options.verify with `io_faults`/`recovery` driving the injection
/// and retry ladder. When the mmap backend fails with a StorageError and
/// options.fallback is kMemory, degrades to an InMemoryStorage re-read of
/// `input_path` (ledgered as storage/degraded). Shared by the CLI and
/// benches.
std::unique_ptr<Storage> open_storage(const StorageOptions& options,
                                      const std::string& input_path,
                                      const graph::EdgeListLimits& limits = {},
                                      const IoFaultPlan& io_faults = {},
                                      const RecoveryOptions& recovery = {});

/// Export a storage's host-side residency into the current registry's kHost
/// section (gauges storage/bytes_mapped, storage/shards,
/// storage/resident_bytes, storage/backend).
void export_storage_host_stats(const Storage& storage);

}  // namespace dmpc::mpc
