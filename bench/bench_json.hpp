// Shared JSON emission for the bench layer.
//
// bench_runner (one BENCH_<EXP>.json per experiment) and bench/perf's
// dmpc_perf emit machine-readable bench artifacts. They share one envelope
// so CI tooling (tools/scaling_check, repro_report, artifact archiving)
// parses a single shape:
//
//   {
//     "schema_version": 1,
//     "bench": "<id>",            // "e1" .. "e20"
//     "title": "<one line>",
//     "quick": true|false,
//     "toolchain": {"compiler": .., "build": .., "commit": ..},
//     ... payload fields appended by the caller ...
//   }
//
// Field discipline mirrors the metrics registry (obs/metrics_registry.hpp):
// "model" sub-objects hold integer-exact, thread- and machine-independent
// values (fractions are scaled to parts-per-million integers via ppm());
// "wall" sub-objects hold non-golden host measurements. scaling_check only
// gates on model fields.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "obs/metrics_registry.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace dmpc::bench {

inline constexpr std::uint64_t kBenchSchemaVersion = 1;

/// Fraction -> parts-per-million integer, so ratio-valued model fields stay
/// integer-exact (and therefore byte-stable) in the artifact.
inline std::uint64_t ppm(double fraction) {
  return static_cast<std::uint64_t>(fraction * 1e6 + 0.5);
}

/// Compiler / build-type / commit stamp. Metadata, not gated: two artifacts
/// from different toolchains are still comparable on their model fields.
inline Json toolchain_stamp(const std::string& commit) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const std::string build = "release";
#else
  const std::string build = "debug";
#endif
  return Json::object()
      .set("compiler", compiler)
      .set("build", build)
      .set("commit", commit.empty() ? std::string("unknown") : commit);
}

/// Non-golden host measurements for one point or scenario.
inline Json wall_stats(double wall_ms) {
  return Json::object()
      .set("wall_ms", wall_ms)
      .set("peak_rss_bytes", obs::peak_rss_bytes());
}

/// The common artifact envelope; callers append payload fields (points,
/// scenarios, sweep metadata) with .set().
inline Json bench_envelope(const std::string& bench, const std::string& title,
                           bool quick, const std::string& commit) {
  return Json::object()
      .set("schema_version", kBenchSchemaVersion)
      .set("bench", bench)
      .set("title", title)
      .set("quick", quick)
      .set("toolchain", toolchain_stamp(commit));
}

/// Pretty-print `doc` to `path` with a trailing newline.
inline void write_json_file(const Json& doc, const std::string& path) {
  std::ofstream out(path);
  DMPC_CHECK_MSG(out.good(), "cannot open " + path);
  out << doc.dump(2) << '\n';
}

}  // namespace dmpc::bench
