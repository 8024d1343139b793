// Tests for the public façade (Theorem 1 dispatch) and the Solver API:
// typed option validation and the determinism-under-parallelism contract.
#include <gtest/gtest.h>

#include <cmath>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"

namespace dmpc {
namespace {

using graph::Graph;

TEST(Api, RegimeDispatch) {
  SolveOptions options;
  // Degree-3 graph on many nodes: low-degree regime.
  EXPECT_TRUE(Solver(options).low_degree_regime(graph::random_regular(4096, 3, 1)));
  // Dense graph: high-degree regime.
  EXPECT_FALSE(Solver(options).low_degree_regime(graph::gnm(256, 8000, 2)));
}

TEST(Api, MisAutoLowDegree) {
  const Graph g = graph::random_regular(500, 4, 3);
  const auto solution = Solver().mis(g);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, solution.in_set));
  EXPECT_EQ(solution.report.algorithm_used, "lowdeg");
  EXPECT_GT(solution.report.metrics.rounds(), 0u);
}

TEST(Api, MisAutoSparsification) {
  const Graph g = graph::gnm(256, 4096, 4);
  const auto solution = Solver().mis(g);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, solution.in_set));
  EXPECT_EQ(solution.report.algorithm_used, "sparsification");
}

TEST(Api, MatchingBothPaths) {
  const Graph sparse = graph::random_regular(300, 4, 5);
  const auto lowdeg = Solver().maximal_matching(sparse);
  EXPECT_TRUE(graph::is_maximal_matching(sparse, lowdeg.matching));
  EXPECT_EQ(lowdeg.report.algorithm_used, "lowdeg");

  const Graph dense = graph::gnm(256, 4096, 6);
  const auto sp = Solver().maximal_matching(dense);
  EXPECT_TRUE(graph::is_maximal_matching(dense, sp.matching));
  EXPECT_EQ(sp.report.algorithm_used, "sparsification");
}

TEST(Api, ForcedAlgorithmOverridesAuto) {
  const Graph g = graph::gnm(200, 2000, 7);  // dense: auto = sparsification
  SolveOptions options;
  options.algorithm = Algorithm::kSparsification;
  const auto forced = Solver(options).mis(g);
  EXPECT_EQ(forced.report.algorithm_used, "sparsification");
  EXPECT_TRUE(graph::is_maximal_independent_set(g, forced.in_set));
}

TEST(Api, Determinism) {
  const Graph g = graph::power_law(300, 1500, 2.5, 8);
  const auto a = Solver().mis(g);
  const auto b = Solver().mis(g);
  EXPECT_EQ(a.in_set, b.in_set);
  EXPECT_EQ(a.report.metrics.rounds(), b.report.metrics.rounds());
}

TEST(Api, TrivialInputs) {
  const Graph empty = Graph::from_edges(3, {});
  const auto mis = Solver().mis(empty);
  EXPECT_EQ(std::count(mis.in_set.begin(), mis.in_set.end(), true), 3);
  const auto mm = Solver().maximal_matching(empty);
  EXPECT_TRUE(mm.matching.empty());
}

TEST(Solver, DefaultOptionsValidate) {
  EXPECT_TRUE(Solver().validate().ok());
  EXPECT_EQ(Solver().validate().code(), StatusCode::kOk);
  EXPECT_EQ(Solver().validate().to_string(), "ok");
}

TEST(Solver, RejectsEpsOutOfRange) {
  // Below the 0.01 floor the sparsification pipelines exhaust memory
  // (1/delta = round(8/eps) bits per node) instead of solving.
  for (double eps : {0.0, -0.5, 1.0, 1.5, 1e-3, 1e-9, 1e-12}) {
    SolveOptions options;
    options.eps = eps;
    const auto status = Solver::validate(options);
    EXPECT_FALSE(status.ok()) << "eps=" << eps;
    EXPECT_EQ(status.code(), StatusCode::kInvalidEps);
    EXPECT_NE(status.message().find("eps"), std::string::npos);
  }
  // NaN must also be rejected.
  SolveOptions options;
  options.eps = std::nan("");
  EXPECT_EQ(Solver::validate(options).code(), StatusCode::kInvalidEps);
}

TEST(Solver, RejectsNonPositiveSpaceHeadroom) {
  for (double headroom : {0.0, -1.0}) {
    SolveOptions options;
    options.space_headroom = headroom;
    const auto status = Solver::validate(options);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidSpaceHeadroom);
    EXPECT_NE(status.message().find("space_headroom"), std::string::npos);
  }
}

TEST(Solver, RejectsNonPositiveDispatchSlack) {
  SolveOptions options;
  options.dispatch_slack = 0.0;
  const auto status = Solver::validate(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidDispatchSlack);
  EXPECT_NE(status.message().find("dispatch_slack"), std::string::npos);
}

TEST(Solver, RejectsAbsurdThreadCount) {
  SolveOptions options;
  options.threads = Solver::kMaxThreads + 1;
  const auto status = Solver::validate(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidThreads);
  // 0 (hardware concurrency) and the cap itself are fine.
  options.threads = 0;
  EXPECT_TRUE(Solver::validate(options).ok());
  options.threads = Solver::kMaxThreads;
  EXPECT_TRUE(Solver::validate(options).ok());
}

TEST(Solver, SolveEntryPointsThrowTypedErrorOnInvalidOptions) {
  const Graph g = graph::gnm(64, 256, 1);
  SolveOptions options;
  options.eps = 2.0;
  const Solver solver(options);
  try {
    (void)solver.mis(g);
    FAIL() << "expected OptionsError";
  } catch (const OptionsError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidEps);
  }
  EXPECT_THROW((void)solver.maximal_matching(g), OptionsError);
  EXPECT_THROW((void)solver.low_degree_regime(g), OptionsError);
  // OptionsError stays catchable as CheckFailure for pre-Solver call sites.
  EXPECT_THROW((void)solver.mis(g), CheckFailure);
}

TEST(Solver, StatusCodeNamesAreStable) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidEps), "invalid_eps");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidTraceFormat),
               "invalid_trace_format");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidClusterOverrides),
               "invalid_cluster_overrides");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidFaultPlan),
               "invalid_fault_plan");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidRetryBudget),
               "invalid_retry_budget");
  EXPECT_STREQ(status_code_name(StatusCode::kUnrecoverableFault),
               "unrecoverable_fault");
  SolveOptions options;
  options.space_headroom = -1.0;
  const auto status = Solver::validate(options);
  EXPECT_EQ(status.to_string().rfind("invalid_space_headroom:", 0), 0u);
}

TEST(Solver, RejectsInconsistentStorageOptions) {
  // mmap without a shard directory is unprovisionable...
  SolveOptions options;
  options.storage.backend = mpc::StorageBackend::kMmap;
  EXPECT_EQ(Solver::validate(options).code(), StatusCode::kInvalidStorage);
  // ...and a shard directory is meaningless for the memory backend.
  options.storage.backend = mpc::StorageBackend::kMemory;
  options.storage.shard_dir = "/tmp/shards";
  EXPECT_EQ(Solver::validate(options).code(), StatusCode::kInvalidStorage);
  options.storage.shard_dir.clear();
  EXPECT_TRUE(Solver::validate(options).ok());
}

TEST(Solver, DispatchThresholdMovesWithSlack) {
  // A 4-regular graph sits in the low-degree regime at the default slack;
  // shrinking the slack far enough pushes it to the sparsification path.
  const Graph g = graph::random_regular(500, 4, 3);
  SolveOptions options;
  EXPECT_TRUE(Solver(options).low_degree_regime(g));
  options.dispatch_slack = 0.1;
  const Solver tight(options);
  EXPECT_LT(tight.dispatch_degree_bound(g.num_nodes()), 4.0);
  EXPECT_FALSE(tight.low_degree_regime(g));
  const auto solution = tight.mis(g);
  EXPECT_EQ(solution.report.algorithm_used, "sparsification");
  EXPECT_TRUE(graph::is_maximal_independent_set(g, solution.in_set));
}

TEST(Solver, ThreadedSolveMatchesSerial) {
  const Graph g = graph::gnm(256, 4096, 9);
  SolveOptions serial;
  SolveOptions threaded;
  threaded.threads = 4;
  const auto a = Solver(serial).mis(g);
  const auto b = Solver(threaded).mis(g);
  EXPECT_EQ(a.in_set, b.in_set);
  EXPECT_EQ(a.report.iterations, b.report.iterations);
  EXPECT_EQ(a.report.metrics.rounds(), b.report.metrics.rounds());
}

TEST(SolverCertify, OffLeavesCertificateEmpty) {
  const Graph g = graph::gnm(256, 4096, 11);
  const Solver solver(SolveOptions{});
  const auto solution = solver.mis(g);
  EXPECT_EQ(solution.report.certificate.mode, verify::CertifyMode::kOff);
  EXPECT_TRUE(solution.report.certificate.empty());
  EXPECT_TRUE(solver.certificate().empty());
}

TEST(SolverCertify, AnswerModeCertifiesMisAndMatching) {
  const Graph g = graph::gnm(256, 4096, 11);
  SolveOptions options;
  options.certify = verify::CertifyMode::kAnswer;
  const Solver solver(options);

  const auto mis = solver.mis(g);
  EXPECT_TRUE(mis.report.certificate.ok());
  EXPECT_EQ(mis.report.certificate.mode, verify::CertifyMode::kAnswer);
  // Answer mode: independence + maximality + space accounting + the
  // storage-integrity verdict (skipped for a plain-graph solve).
  EXPECT_EQ(mis.report.certificate.claims.size(), 4u);
  EXPECT_EQ(solver.certificate().claims.size(), 4u);
  EXPECT_EQ(mis.report.certificate.claims.back().claim,
            verify::Claim::kStorageIntegrity);
  EXPECT_EQ(mis.report.certificate.claims.back().verdict,
            verify::Verdict::kSkipped);

  const auto matching = solver.maximal_matching(g);
  EXPECT_TRUE(matching.report.certificate.ok());
  EXPECT_EQ(matching.report.certificate.claims.size(), 4u);
  EXPECT_EQ(matching.report.certificate.claims[0].claim,
            verify::Claim::kMatchingValidity);
}

TEST(SolverCertify, FullModeCertifiesAllClaimsOnBothRegimes) {
  SolveOptions options;
  options.certify = verify::CertifyMode::kFull;
  const Solver solver(options);
  // Sparsification regime: the audit claims are checked, not skipped.
  const auto dense = solver.mis(graph::gnm(256, 4096, 12));
  EXPECT_TRUE(dense.report.certificate.ok());
  EXPECT_EQ(dense.report.certificate.claims.size(), 8u);
  for (const auto& claim : dense.report.certificate.claims) {
    EXPECT_NE(verify::verdict_name(claim.verdict), std::string("fail"));
  }
  // Low-degree regime: no sparsifier ran; audit claims are skipped but the
  // certificate still passes.
  const auto sparse = solver.mis(graph::random_regular(500, 4, 13));
  EXPECT_TRUE(sparse.report.certificate.ok());
  EXPECT_EQ(sparse.report.certificate.claims.size(), 8u);
}

TEST(SolverCertify, SpaceClaimJudgesTheClusterThatRan) {
  // Auto dispatch sends regular(4096, 8) to the low-degree pipeline, whose
  // own cluster has S = 2048 and peaks at 520 words in the gather. The space
  // claim must judge that S, not the sparsification S = 512.
  const Graph g = graph::random_regular(4096, 8, 1);
  SolveOptions options;
  options.certify = verify::CertifyMode::kFull;
  const Solver solver(options);
  const auto mis = solver.mis(g);
  EXPECT_EQ(mis.report.algorithm_used, "lowdeg");
  EXPECT_GT(mis.report.metrics.peak_machine_load(),
            solver.cluster(g.num_nodes(), g.num_edges()).space());
  EXPECT_LE(mis.report.metrics.peak_machine_load(),
            mis.report.metrics.machine_space());
  EXPECT_TRUE(mis.report.certificate.ok());
  EXPECT_TRUE(solver.maximal_matching(g).report.certificate.ok());
}

TEST(SolverCertify, FullModeDoesNotPerturbTheSolve) {
  const Graph g = graph::gnm(256, 4096, 14);
  SolveOptions plain;
  SolveOptions certified;
  certified.certify = verify::CertifyMode::kFull;
  const auto a = Solver(plain).mis(g);
  const auto b = Solver(certified).mis(g);
  EXPECT_EQ(a.in_set, b.in_set);
  EXPECT_EQ(a.report.metrics.rounds(), b.report.metrics.rounds());
  EXPECT_EQ(a.report.metrics.peak_machine_load(),
            b.report.metrics.peak_machine_load());
}

TEST(SolverCertify, CertificateSurvivesJsonRoundTrip) {
  const Graph g = graph::gnm(256, 4096, 15);
  SolveOptions options;
  options.certify = verify::CertifyMode::kFull;
  const Solver solver(options);
  const auto solution = solver.mis(g);
  const std::string json = solver.report_json(solution.report);
  EXPECT_NE(json.find("\"certificate\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mode\":\"full\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mis_independence\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"replay_identity\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sparsify_audit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
}

TEST(SolverCertify, CertifyUnderFaultsStillPassesAndMatchesFaultFree) {
  const Graph g = graph::gnm(256, 4096, 16);
  SolveOptions faulted;
  faulted.certify = verify::CertifyMode::kFull;
  faulted.faults.add({mpc::FaultKind::kCrash, /*round=*/2, /*machine=*/0});
  const Solver solver(faulted);
  const auto solution = solver.mis(g);
  EXPECT_TRUE(solution.report.certificate.ok());
  EXPECT_GT(solution.report.recovery.faults_injected, 0u);

  SolveOptions clean;
  clean.certify = verify::CertifyMode::kFull;
  const auto reference = Solver(clean).mis(g);
  EXPECT_EQ(solution.in_set, reference.in_set);
  // The certificate claims themselves are identical: the replay-identity
  // claim runs in both runs precisely so the certified report stays
  // comparable across fault axes.
  ASSERT_EQ(solution.report.certificate.claims.size(),
            reference.report.certificate.claims.size());
  for (std::size_t i = 0; i < reference.report.certificate.claims.size();
       ++i) {
    EXPECT_EQ(solution.report.certificate.claims[i].verdict,
              reference.report.certificate.claims[i].verdict);
  }
}

}  // namespace
}  // namespace dmpc
