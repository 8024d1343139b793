// JSON serialization of run reports, for tooling and experiment pipelines.
#pragma once

#include "api/solve_types.hpp"
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

}  // namespace dmpc
