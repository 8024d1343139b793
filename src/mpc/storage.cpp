#include "mpc/storage.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "mpc/mapped_file.hpp"
#include "obs/metrics_registry.hpp"
#include "support/parse_error.hpp"

namespace dmpc::mpc {

namespace fs = std::filesystem;

const char* storage_backend_name(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kMemory:
      return "memory";
    case StorageBackend::kMmap:
      return "mmap";
  }
  return "unknown";
}

const char* verify_mode_name(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff:
      return "off";
    case VerifyMode::kOpen:
      return "open";
    case VerifyMode::kParanoid:
      return "paranoid";
  }
  return "unknown";
}

const char* fallback_mode_name(FallbackMode mode) {
  switch (mode) {
    case FallbackMode::kNone:
      return "none";
    case FallbackMode::kMemory:
      return "memory";
  }
  return "unknown";
}

StorageStats InMemoryStorage::stats() const {
  StorageStats s;
  const graph::Graph& g = graph_;
  // Exact heap CSR footprint: offsets + adjacency + incident + edges.
  s.bytes_total = (static_cast<std::uint64_t>(g.num_nodes()) + 1) * 8 +
                  2 * g.num_edges() * (8 + 4) + g.num_edges() * 8;
  s.shards = g.extents().size();
  s.resident_bytes = s.bytes_total;  // heap memory is always resident
  return s;
}

struct MmapShardStorage::Mappings {
  std::vector<MappedFile> files;
  /// Quarantined shards: heap re-read copies served instead of the mapping.
  /// The mapping itself is kept alive (never unmapped mid-lifetime) so
  /// Graph views handed out before the quarantine stay valid.
  std::vector<std::unique_ptr<std::vector<unsigned char>>> heap;
};

namespace {

/// The retry ladder: run `body` (one access attempt), retrying transient
/// StorageErrors up to `recovery.max_retries` times with exponential
/// backoff units charged to the ledger. kQuarantined never retries — the
/// same bytes would fail the same way.
template <typename Body>
void with_retries(const RecoveryOptions& recovery, IoRecoveryStats& ledger,
                  Body&& body) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      body();
      return;
    } catch (const StorageError& e) {
      if (e.code() == StorageErrorCode::kQuarantined ||
          attempt >= recovery.max_retries) {
        throw;
      }
      ++ledger.retries;
      ledger.backoff_units += recovery.backoff_rounds << attempt;
    }
  }
}

}  // namespace

const unsigned char* MmapShardStorage::shard_bytes(std::uint64_t index) const {
  const auto& heap = mappings_->heap;
  if (index < heap.size() && heap[index] != nullptr) {
    return heap[index]->data();
  }
  return mappings_->files[index].data();
}

void MmapShardStorage::fault_point(std::uint64_t shard, std::uint64_t access,
                                   bool* corrupt) const {
  const std::uint32_t attempt = attempts_[{shard, access}]++;
  for (const IoFaultEvent* event : io_faults_.active(shard, access, attempt)) {
    ++io_ledger_.io_faults_injected;
    switch (event->kind) {
      case IoFaultKind::kSlow:
        // A straggling disk: the barrier absorbs the delay; only the ledger
        // sees it. No throw.
        io_ledger_.backoff_units += event->delay;
        break;
      case IoFaultKind::kCorrupt:
        // The caller observes checksum-corrupted bytes on this attempt.
        if (corrupt != nullptr) *corrupt = true;
        break;
      case IoFaultKind::kEio:
        throw StorageError(StorageErrorCode::kIoTransient,
                           "injected EIO (attempt " + std::to_string(attempt) +
                               ")",
                           shard);
      case IoFaultKind::kShortRead:
        throw StorageError(StorageErrorCode::kShortRead,
                           "injected short read (attempt " +
                               std::to_string(attempt) + ")",
                           shard);
      case IoFaultKind::kMapFail:
        throw StorageError(StorageErrorCode::kMapFailed,
                           "injected mmap failure (attempt " +
                               std::to_string(attempt) + ")",
                           shard);
    }
  }
}

void MmapShardStorage::verify_manifest_or_throw() const {
  with_retries(recovery_, io_ledger_, [&] {
    bool corrupt = false;
    fault_point(kManifestShard, kAccessVerify, &corrupt);
    std::uint64_t digest =
        manifest_digest(manifest_bytes_.data(), manifest_bytes_.size());
    if (corrupt) digest ^= 1;
    if (digest != manifest_.digest) {
      ++io_ledger_.checksum_failures;
      throw StorageError(StorageErrorCode::kChecksumMismatch,
                         "manifest digest " + std::to_string(digest) +
                             " != stored " + std::to_string(manifest_.digest));
    }
  });
}

void MmapShardStorage::verify_shard_or_throw(std::uint64_t index) const {
  const ShardEntry& entry = manifest_.shards[index];
  const auto verify_once = [&](std::uint64_t access) {
    bool corrupt = false;
    fault_point(index, access, &corrupt);
    std::uint64_t crc = crc64(shard_bytes(index),
                              static_cast<std::size_t>(entry.file_bytes));
    if (corrupt) crc ^= 1;
    if (crc != entry.crc64) {
      ++io_ledger_.checksum_failures;
      throw StorageError(StorageErrorCode::kChecksumMismatch,
                         "shard crc64 " + std::to_string(crc) +
                             " != manifest " + std::to_string(entry.crc64),
                         index);
    }
  };
  try {
    with_retries(recovery_, io_ledger_,
                 [&] { verify_once(kAccessVerify); });
    ++io_ledger_.shards_verified;
    return;
  } catch (const StorageError&) {
    // Retries exhausted on the mapped bytes: escalate to quarantine — drop
    // the mapping from service and re-read the file into a heap copy.
  }
  quarantine_shard(index);
  // The quarantined copy must itself verify before it is trusted.
  with_retries(recovery_, io_ledger_,
               [&] { verify_once(kAccessVerify); });
  ++io_ledger_.shards_verified;
}

void MmapShardStorage::quarantine_shard(std::uint64_t index) const {
  const ShardEntry& entry = manifest_.shards[index];
  const std::string path =
      (fs::path(dir_) / shard_file_name(index)).string();
  try {
    with_retries(recovery_, io_ledger_, [&] {
      bool corrupt = false;
      fault_point(index, kAccessQuarantine, &corrupt);
      auto buffer = std::make_unique<std::vector<unsigned char>>(
          static_cast<std::size_t>(entry.file_bytes));
      errno = 0;
      const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        throw StorageError(StorageErrorCode::kIoTransient,
                           "quarantine re-open of '" + path +
                               "' failed: " + std::strerror(errno),
                           index);
      }
      const std::int64_t got =
          pread_retry_eintr(fd, buffer->data(), buffer->size(), 0);
      ::close(fd);
      if (got < 0) {
        throw StorageError(StorageErrorCode::kIoTransient,
                           "quarantine re-read of '" + path +
                               "' failed: " + std::strerror(errno),
                           index);
      }
      if (static_cast<std::uint64_t>(got) != entry.file_bytes) {
        throw StorageError(StorageErrorCode::kShortRead,
                           "quarantine re-read of '" + path + "' returned " +
                               std::to_string(got) + " of " +
                               std::to_string(entry.file_bytes) + " bytes",
                           index);
      }
      std::uint64_t crc = crc64(buffer->data(), buffer->size());
      if (corrupt) crc ^= 1;
      if (crc != entry.crc64) {
        ++io_ledger_.checksum_failures;
        throw StorageError(StorageErrorCode::kChecksumMismatch,
                           "quarantine re-read crc64 " + std::to_string(crc) +
                               " != manifest " + std::to_string(entry.crc64),
                           index);
      }
      if (mappings_->heap.size() < mappings_->files.size()) {
        mappings_->heap.resize(mappings_->files.size());
      }
      mappings_->heap[index] = std::move(buffer);
    });
  } catch (const StorageError& e) {
    throw StorageError(StorageErrorCode::kQuarantined,
                       "shard exhausted its quarantine budget: " + e.detail(),
                       index);
  }
  ++io_ledger_.quarantined_shards;
  // The extent view must serve the quarantined copy from now on.
  rebuild_graph();
}

void MmapShardStorage::rebuild_graph() const {
  std::vector<graph::GraphExtent> parts;
  parts.reserve(manifest_.shards.size());
  for (std::uint64_t i = 0; i < manifest_.shards.size(); ++i) {
    const ShardEntry& e = manifest_.shards[i];
    const std::uint64_t nodes = e.node_end - e.node_begin;
    const std::uint64_t slots = e.slot_end - e.slot_begin;
    const std::uint64_t edges = e.edge_end - e.edge_begin;
    const unsigned char* base = shard_bytes(i);
    graph::GraphExtent part;
    part.node_begin = static_cast<graph::NodeId>(e.node_begin);
    part.node_end = static_cast<graph::NodeId>(e.node_end);
    part.edge_begin = e.edge_begin;
    part.edge_end = e.edge_end;
    part.slot_begin = e.slot_begin;
    part.slot_end = e.slot_end;
    part.offsets =
        reinterpret_cast<const std::uint64_t*>(base + kShardHeaderBytes);
    part.incident = part.offsets + nodes + 1;
    part.edges = reinterpret_cast<const graph::Edge*>(part.incident + slots);
    part.adjacency =
        reinterpret_cast<const graph::NodeId*>(part.edges + edges);
    parts.push_back(part);
  }
  graph_ = graph::Graph::from_extents(
      static_cast<graph::NodeId>(manifest_.n), manifest_.m,
      manifest_.max_degree, std::move(parts), mappings_);
}

IntegrityReport MmapShardStorage::verify_integrity() const {
  IntegrityReport report;
  if (!manifest_.has_checksums()) {
    report.status = IntegrityReport::Status::kUnverified;
    report.detail = "v1 manifest carries no checksums";
    return report;
  }
  try {
    verify_manifest_or_throw();
    for (std::uint64_t i = 0; i < manifest_.shards.size(); ++i) {
      verify_shard_or_throw(i);
      ++report.shards_checked;
    }
  } catch (const StorageError& e) {
    report.status = IntegrityReport::Status::kFailed;
    report.bad_shard = e.shard();
    report.detail = e.what();
    return report;
  }
  report.status = IntegrityReport::Status::kVerified;
  return report;
}

std::unique_ptr<MmapShardStorage> MmapShardStorage::open(
    const std::string& dir, const graph::EdgeListLimits& limits,
    VerifyMode verify, const IoFaultPlan& io_faults,
    const RecoveryOptions& recovery) {
  auto storage = std::unique_ptr<MmapShardStorage>(new MmapShardStorage());
  storage->dir_ = dir;
  storage->verify_ = verify;
  storage->io_faults_ = io_faults;
  storage->recovery_ = recovery;

  const std::string manifest_path =
      (fs::path(dir) / kManifestFileName).string();
  std::vector<unsigned char>& bytes = storage->manifest_bytes_;
  with_retries(recovery, storage->io_ledger_, [&] {
    storage->fault_point(kManifestShard, kAccessOpen, nullptr);
    errno = 0;
    std::ifstream in(manifest_path, std::ios::binary);
    if (!in.good()) {
      throw ParseError(ParseErrorCode::kIoError,
                       "cannot open '" + manifest_path + "' for reading: " +
                           std::strerror(errno ? errno : EINVAL));
    }
    // Bound the read before trusting any header field: a valid manifest for
    // a graph within the caps cannot exceed this many bytes.
    const std::uint64_t cap = kManifestHeaderBytes +
                              limits.max_nodes * kManifestEntryBytes +
                              kManifestDigestBytes;
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(in.tellg());
    if (size > cap) {
      throw ParseError(ParseErrorCode::kShardLimitExceeded,
                       "shard manifest: file size " + std::to_string(size) +
                           " exceeds the cap implied by max_nodes");
    }
    in.seekg(0, std::ios::beg);
    bytes.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!in.good() && !in.eof()) {
      throw ParseError(ParseErrorCode::kIoError,
                       "read failure on '" + manifest_path + "'");
    }
  });
  storage->manifest_ = parse_shard_manifest(bytes.data(), bytes.size(), limits);
  const ShardManifest& manifest = storage->manifest_;

  storage->mappings_ = std::make_shared<Mappings>();
  Mappings& mappings = *storage->mappings_;
  mappings.heap.resize(manifest.shards.size());
  std::uint32_t seen_max_degree = 0;
  for (std::uint64_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardEntry& e = manifest.shards[i];
    MappedFile map;
    with_retries(recovery, storage->io_ledger_, [&] {
      storage->fault_point(i, kAccessOpen, nullptr);
      map = MappedFile::open_readonly(
          (fs::path(dir) / shard_file_name(i)).string(), e.file_bytes);
    });
    const unsigned char* base = map.data();
    if (std::memcmp(base, kShardMagic, sizeof(kShardMagic)) != 0) {
      throw ParseError(ParseErrorCode::kBadHeader,
                       "shard " + std::to_string(i) + ": bad magic");
    }
    std::uint64_t index = 0;
    std::memcpy(&index, base + 8, sizeof(index));
    if (index != i) {
      throw ParseError(ParseErrorCode::kBadHeader,
                       "shard " + std::to_string(i) + ": header names shard " +
                           std::to_string(index));
    }
    const std::uint64_t nodes = e.node_end - e.node_begin;
    const auto* offsets =
        reinterpret_cast<const std::uint64_t*>(base + kShardHeaderBytes);
    // Structural validation of the offsets slice: anchored at the manifest
    // ranges, monotone, rows within degree bounds. O(nodes) — the payload
    // arrays stay untouched so no page beyond the offsets faults in here.
    if (offsets[0] != e.slot_begin || offsets[nodes] != e.slot_end) {
      throw ParseError(ParseErrorCode::kCountMismatch,
                       "shard " + std::to_string(i) +
                           ": offsets slice is not anchored at the "
                           "manifest's slot range");
    }
    for (std::uint64_t v = 0; v < nodes; ++v) {
      if (offsets[v + 1] < offsets[v] ||
          offsets[v + 1] - offsets[v] > manifest.n - 1) {
        throw ParseError(ParseErrorCode::kOutOfRange,
                         "shard " + std::to_string(i) + ": corrupt offsets");
      }
      seen_max_degree = std::max(
          seen_max_degree, static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]));
    }
    mappings.files.push_back(std::move(map));
  }
  if (seen_max_degree != manifest.max_degree) {
    throw ParseError(ParseErrorCode::kCountMismatch,
                     "manifest max_degree " +
                         std::to_string(manifest.max_degree) +
                         " disagrees with offsets (" +
                         std::to_string(seen_max_degree) + ")");
  }

  // Eager integrity pass (kOpen and kParanoid). Unrecoverable failures —
  // the ladder already retried and quarantined — surface as StorageError so
  // open_storage can degrade per StorageOptions::fallback.
  if (verify != VerifyMode::kOff && manifest.has_checksums()) {
    storage->verify_manifest_or_throw();
    for (std::uint64_t i = 0; i < manifest.shards.size(); ++i) {
      storage->verify_shard_or_throw(i);
    }
  }

  storage->rebuild_graph();
  return storage;
}

StorageStats MmapShardStorage::stats() const {
  StorageStats s;
  s.shards = mappings_->files.size();
  for (const MappedFile& f : mappings_->files) {
    s.bytes_total += f.size();
    s.resident_bytes += f.resident_bytes();
  }
  for (const auto& buffer : mappings_->heap) {
    if (buffer != nullptr) s.resident_bytes += buffer->size();
  }
  return s;
}

std::unique_ptr<Storage> open_storage(const StorageOptions& options,
                                      const std::string& input_path,
                                      const graph::EdgeListLimits& limits,
                                      const IoFaultPlan& io_faults,
                                      const RecoveryOptions& recovery) {
  switch (options.backend) {
    case StorageBackend::kMemory:
      // An io-fault plan against the heap backend is a valid no-op: there
      // is no host I/O to perturb.
      return std::make_unique<InMemoryStorage>(
          graph::read_edge_list_file(input_path, limits));
    case StorageBackend::kMmap:
      try {
        return MmapShardStorage::open(options.shard_dir, limits,
                                      options.verify, io_faults, recovery);
      } catch (const StorageError& e) {
        if (options.fallback != FallbackMode::kMemory || input_path.empty()) {
          throw;
        }
        // Whole-backend degradation: the mmap path is unrecoverable, the
        // text input is not. The approximate failure ledger (the failed
        // backend died with its exact counters) records the degradation and
        // the class of failure that caused it.
        auto memory = std::make_unique<InMemoryStorage>(
            graph::read_edge_list_file(input_path, limits));
        IoRecoveryStats ledger;
        ledger.degraded = 1;
        if (e.code() == StorageErrorCode::kChecksumMismatch ||
            e.code() == StorageErrorCode::kQuarantined) {
          ledger.checksum_failures = 1;
        }
        memory->merge_io_recovery(ledger);
        return memory;
      }
  }
  return nullptr;
}

void export_storage_host_stats(const Storage& storage) {
  auto& registry = obs::MetricsRegistry::current();
  const StorageStats s = storage.stats();
  registry.gauge("storage/bytes_mapped", obs::MetricSection::kHost)
      .set(static_cast<std::int64_t>(s.bytes_total));
  registry.gauge("storage/shards", obs::MetricSection::kHost)
      .set(static_cast<std::int64_t>(s.shards));
  registry.gauge("storage/resident_bytes", obs::MetricSection::kHost)
      .set(static_cast<std::int64_t>(s.resident_bytes));
  registry.gauge("storage/backend", obs::MetricSection::kHost)
      .set(static_cast<std::int64_t>(storage.backend()));
}

}  // namespace dmpc::mpc
