// JSON serialization of run reports, for tooling and experiment pipelines.
#pragma once

#include "api/solve_types.hpp"
#include "matching/det_matching.hpp"
#include "mis/det_mis.hpp"
#include "mpc/metrics.hpp"
#include "obs/metrics_registry.hpp"
#include "support/json.hpp"

namespace dmpc {

Json to_json(const mpc::Metrics& metrics);
Json to_json(const mpc::IoRecoveryStats& stats);
Json to_json(const mpc::RecoveryStats& stats);
Json to_json(const verify::Witness& witness);
Json to_json(const verify::ClaimResult& result);
Json to_json(const verify::Certificate& certificate);
Json to_json(const verify::SparsifyAudit& audit);
Json to_json(const obs::EventsSummary& events);
Json to_json(const SolveReport& report);

/// The schema version a report serializes with: the highest enabled tier
/// (events > profile > base), so an unobserved solve serializes
/// byte-identically to pre-events output. Shared by to_json and the CLI's
/// --metrics-out document.
std::uint32_t report_schema_version(const SolveReport& report);
Json to_json(const matching::IterationReport& report);
Json to_json(const mis::MisIterationReport& report);

/// Full run dumps: report + per-iteration traces.
Json to_json(const matching::DetMatchingResult& result);
Json to_json(const mis::DetMisResult& result);

}  // namespace dmpc
