#include "api/report_json.hpp"

#include "api/solver.hpp"

namespace dmpc {

Json to_json(const mpc::Metrics& metrics) {
  // One object per ledger column, nonzero cells only.
  const auto column = [&](std::uint64_t mpc::LabelCost::*cell) {
    Json out = Json::object();
    for (const auto& [label, cost] : metrics.by_label()) {
      if (cost.*cell != 0) out.set(label, cost.*cell);
    }
    return out;
  };
  return Json::object()
      .set("rounds", metrics.rounds())
      .set("peak_machine_load", metrics.peak_machine_load())
      .set("total_communication", metrics.total_communication())
      .set("rounds_by_label", column(&mpc::LabelCost::rounds))
      .set("communication_by_label", column(&mpc::LabelCost::communication))
      .set("peak_load_by_label", column(&mpc::LabelCost::peak_load));
}

Json to_json(const mpc::IoRecoveryStats& stats) {
  return Json::object()
      .set("io_faults_injected", stats.io_faults_injected)
      .set("retries", stats.retries)
      .set("backoff_units", stats.backoff_units)
      .set("checksum_failures", stats.checksum_failures)
      .set("quarantined_shards", stats.quarantined_shards)
      .set("degraded", stats.degraded)
      .set("shards_verified", stats.shards_verified);
}

Json to_json(const mpc::RecoveryStats& stats) {
  Json retries = Json::object();
  for (const auto& [label, count] : stats.retries_by_label) {
    retries.set(label, count);
  }
  return Json::object()
      .set("faults_injected", stats.faults_injected)
      .set("crashes", stats.crashes)
      .set("messages_dropped", stats.messages_dropped)
      .set("duplicates_suppressed", stats.duplicates_suppressed)
      .set("straggler_rounds", stats.straggler_rounds)
      .set("retries", stats.retries)
      .set("replayed_rounds", stats.replayed_rounds)
      .set("checkpoints", stats.checkpoints)
      .set("checkpoint_words", stats.checkpoint_words)
      .set("retries_by_label", std::move(retries))
      .set("storage", to_json(stats.storage));
}

Json to_json(const verify::Witness& witness) {
  return Json::object()
      .set("kind", witness.kind)
      .set("index", witness.index)
      .set("u", witness.u)
      .set("v", witness.v)
      .set("measured", witness.measured)
      .set("bound", witness.bound)
      .set("detail", witness.detail);
}

Json to_json(const verify::ClaimResult& result) {
  Json json = Json::object()
                  .set("claim", verify::claim_name(result.claim))
                  .set("verdict", verify::verdict_name(result.verdict))
                  .set("checked", result.checked);
  if (result.has_witness) json.set("witness", to_json(result.witness));
  return json;
}

Json to_json(const verify::Certificate& certificate) {
  Json claims = Json::array();
  for (const verify::ClaimResult& claim : certificate.claims) {
    claims.push(to_json(claim));
  }
  return Json::object()
      .set("schema_version", verify::kCertificateSchemaVersion)
      .set("mode", verify::certify_mode_name(certificate.mode))
      .set("ok", certificate.ok())
      .set("failures", certificate.failures())
      .set("claims", std::move(claims));
}

Json to_json(const verify::SparsifyAudit& audit) {
  return Json::object()
      .set("iterations", audit.iterations)
      .set("stages", audit.stages)
      .set("max_degree", audit.max_degree)
      .set("degree_cap", audit.degree_cap)
      .set("worst_degree_ratio", audit.worst_degree_ratio)
      .set("worst_xv_ratio", audit.worst_xv_ratio)
      .set("max_window_multiplier", audit.max_window_multiplier);
}

Json to_json(const obs::EventsSummary& events) {
  return Json::object()
      .set("stream_version", events.stream_version)
      .set("model_events", events.model_events)
      .set("recovery_events", events.recovery_events)
      .set("filtered_events", events.filtered_events);
}

Json to_json(const SolveReport& report) {
  // Only the golden model section of the solve's registry enters the report:
  // the recovery section would break the "identical modulo the recovery
  // block" fault contract, and the host section (wall/RSS, executor
  // scheduling) is non-deterministic by nature. The optional `profile`
  // block appears only for profiled solves and the optional
  // `events_summary` block only for solves with an event bus attached; the
  // schema version is the same either way.
  Json json =
      Json::object()
          .set("schema_version", kReportSchemaVersion)
          .set("algorithm", report.algorithm_used)
          .set("iterations", report.iterations)
          .set("metrics", to_json(report.metrics))
          .set("recovery", to_json(report.recovery))
          .set("sparsify_audit", to_json(report.sparsify))
          .set("certificate", to_json(report.certificate))
          .set("registry",
               obs::to_json_section(report.registry, obs::MetricSection::kModel,
                                    /*include_zero=*/false));
  if (report.profile.enabled) json.set("profile", to_json(report.profile));
  if (report.events.enabled) {
    json.set("events_summary", to_json(report.events));
  }
  return json;
}

std::string Solver::report_json(const SolveReport& solve_report) const {
  return to_json(solve_report).dump();
}

}  // namespace dmpc
