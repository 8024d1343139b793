// Fault injection + checkpoint/restart engine (src/mpc/faults.hpp).
//
// Pins the tentpole guarantees: plans are plain round-trippable data, every
// in-range event fires deterministically, crashed/dropped supersteps replay
// from checkpoints to the byte-identical fault-free result, recovery
// overhead lands in the RecoveryStats side ledger (never in Metrics), and
// exhaustion is a typed FaultError — never a hang or a wrong answer.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "mpc/cluster.hpp"
#include "mpc/faults.hpp"
#include "mpc/primitives.hpp"
#include "obs/events.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace dmpc {
namespace {

using mpc::CheckpointMode;
using mpc::Cluster;
using mpc::ClusterConfig;
using mpc::FaultError;
using mpc::FaultEvent;
using mpc::FaultKind;
using mpc::FaultPlan;
using mpc::RecoveryOptions;
using mpc::Word;

// ---- FaultPlan: plain data ----

TEST(FaultPlan, ParseRoundTrip) {
  const std::string text =
      "# schedule\n"
      "crash round=4 machine=2\n"
      "drop round=7 machine=1 message=3\n"
      "duplicate round=9 machine=0 message=0\n"
      "straggler round=12 machine=5 delay=4 attempts=2\n";
  std::string error;
  const FaultPlan plan = FaultPlan::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(plan.events().size(), 4u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events()[0].round, 4u);
  EXPECT_EQ(plan.events()[0].machine, 2u);
  EXPECT_EQ(plan.events()[3].delay, 4u);
  EXPECT_EQ(plan.events()[3].attempts, 2u);

  const FaultPlan again = FaultPlan::parse(plan.to_string(), &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(again.to_string(), plan.to_string());
}

TEST(FaultPlan, ParseErrorsCarryLineNumbers) {
  std::string error;
  FaultPlan::parse("crash round=1\nfrobnicate round=2\n", &error);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  error.clear();
  FaultPlan::parse("crash wat=1\n", &error);
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(FaultPlan, CheckRejectsMalformedEvents) {
  FaultPlan zero_attempts;
  zero_attempts.add({FaultKind::kCrash, 1, 0, 0, 1, /*attempts=*/0});
  EXPECT_FALSE(zero_attempts.check().empty());

  FaultPlan zero_delay;
  FaultEvent straggler;
  straggler.kind = FaultKind::kStraggler;
  straggler.delay = 0;
  zero_delay.add(straggler);
  EXPECT_FALSE(zero_delay.check().empty());

  FaultPlan fine;
  fine.add({FaultKind::kDrop, 3, 1, 0});
  EXPECT_TRUE(fine.check().empty()) << fine.check();
}

TEST(FaultPlan, ActiveFiltersWindowAndAttempt) {
  FaultPlan plan;
  plan.add({FaultKind::kCrash, /*round=*/5, 0});
  FaultEvent persistent{FaultKind::kCrash, /*round=*/6, 0};
  persistent.attempts = 3;
  plan.add(persistent);

  EXPECT_EQ(plan.active(0, 5, 0).size(), 0u);  // window ends before round 5
  EXPECT_EQ(plan.active(5, 6, 0).size(), 1u);
  EXPECT_EQ(plan.active(5, 7, 0).size(), 2u);
  EXPECT_EQ(plan.active(5, 7, 1).size(), 1u);  // only the attempts=3 event
  EXPECT_EQ(plan.active(5, 7, 3).size(), 0u);  // both exhausted
}

// ---- Low-level step: crash / drop / duplicate / straggler recovery ----

Cluster small_cluster(const FaultPlan& plan = {},
                      RecoveryOptions recovery = {}) {
  ClusterConfig cc;
  cc.machine_space = 64;
  cc.num_machines = 4;
  mpc::ClusterSetup setup;
  setup.faults = plan;
  setup.recovery = recovery;
  return Cluster(cc, setup);
}

/// One deterministic superstep: every machine increments its words and sends
/// their sum to machine 0.
void sum_step(Cluster& cluster) {
  cluster.step(
      [](mpc::MachineContext& ctx) {
        Word sum = 0;
        for (Word& w : ctx.local()) {
          w += 1;
          sum += w;
        }
        ctx.send(0, {sum});
      },
      "test/sum_step");
}

std::vector<std::vector<Word>> run_steps(const FaultPlan& plan,
                                         RecoveryOptions recovery,
                                         int steps = 3) {
  Cluster cluster = small_cluster(plan, recovery);
  cluster.load({{1, 2}, {3}, {4, 5}, {}});
  for (int i = 0; i < steps; ++i) sum_step(cluster);
  std::vector<std::vector<Word>> locals;
  for (std::uint64_t i = 0; i < cluster.low_level_machines(); ++i) {
    locals.push_back(cluster.local(i));
  }
  return locals;
}

TEST(FaultRecovery, CrashedStepReplaysToIdenticalState) {
  const auto clean = run_steps(FaultPlan{}, RecoveryOptions{});

  FaultPlan plan;
  plan.add({FaultKind::kCrash, /*round=*/1, /*machine=*/2});
  const auto faulty = run_steps(plan, RecoveryOptions{});
  EXPECT_EQ(faulty, clean);

  Cluster cluster = small_cluster(plan);
  cluster.load({{1, 2}, {3}, {4, 5}, {}});
  for (int i = 0; i < 3; ++i) sum_step(cluster);
  EXPECT_EQ(cluster.recovery_stats().crashes, 1u);
  EXPECT_EQ(cluster.recovery_stats().retries, 1u);
  EXPECT_GT(cluster.recovery_stats().replayed_rounds, 0u);
  EXPECT_GT(cluster.recovery_stats().checkpoints, 0u);
  EXPECT_EQ(cluster.recovery_stats().retries_by_label.at("test/sum_step"), 1u);
}

TEST(FaultRecovery, DroppedMessageReplaysToIdenticalState) {
  const auto clean = run_steps(FaultPlan{}, RecoveryOptions{});
  FaultPlan plan;
  plan.add({FaultKind::kDrop, /*round=*/0, /*machine=*/1, /*message=*/0});
  EXPECT_EQ(run_steps(plan, RecoveryOptions{}), clean);
}

TEST(FaultRecovery, DuplicateAndStragglerNeverReplay) {
  const auto clean = run_steps(FaultPlan{}, RecoveryOptions{});
  FaultPlan plan;
  plan.add({FaultKind::kDuplicate, /*round=*/1, /*machine=*/0, /*message=*/0});
  FaultEvent straggler;
  straggler.kind = FaultKind::kStraggler;
  straggler.round = 2;
  straggler.machine = 3;
  straggler.delay = 5;
  plan.add(straggler);

  Cluster cluster = small_cluster(plan);
  cluster.load({{1, 2}, {3}, {4, 5}, {}});
  for (int i = 0; i < 3; ++i) sum_step(cluster);
  std::vector<std::vector<Word>> locals;
  for (std::uint64_t i = 0; i < cluster.low_level_machines(); ++i) {
    locals.push_back(cluster.local(i));
  }
  EXPECT_EQ(locals, clean);
  EXPECT_EQ(cluster.recovery_stats().retries, 0u);
  EXPECT_EQ(cluster.recovery_stats().duplicates_suppressed, 1u);
  EXPECT_EQ(cluster.recovery_stats().straggler_rounds, 5u);
}

TEST(FaultRecovery, MetricsAreByteIdenticalUnderFaults) {
  // The core cost model must not see the fault layer at all.
  Cluster clean = small_cluster();
  clean.load({{1, 2}, {3}, {4, 5}, {}});
  for (int i = 0; i < 3; ++i) sum_step(clean);

  FaultPlan plan;
  plan.add({FaultKind::kCrash, /*round=*/0, /*machine=*/0});
  plan.add({FaultKind::kDrop, /*round=*/2, /*machine=*/2, /*message=*/0});
  Cluster faulty = small_cluster(plan);
  faulty.load({{1, 2}, {3}, {4, 5}, {}});
  for (int i = 0; i < 3; ++i) sum_step(faulty);

  EXPECT_EQ(faulty.metrics().rounds(), clean.metrics().rounds());
  EXPECT_EQ(faulty.metrics().total_communication(),
            clean.metrics().total_communication());
  EXPECT_EQ(faulty.metrics().peak_machine_load(),
            clean.metrics().peak_machine_load());
}

// ---- Retry budget, checkpoint modes, typed errors ----

TEST(FaultRecovery, RetryExhaustionThrowsTypedErrorNotHang) {
  FaultPlan plan;
  FaultEvent stubborn{FaultKind::kCrash, /*round=*/0, /*machine=*/0};
  stubborn.attempts = 10;  // outlives any budget below
  plan.add(stubborn);
  RecoveryOptions recovery;
  recovery.max_retries = 2;

  Cluster cluster = small_cluster(plan, recovery);
  cluster.load({{1}, {}, {}, {}});
  try {
    sum_step(cluster);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.label(), "test/sum_step");
    EXPECT_EQ(e.round(), 0u);
    EXPECT_EQ(e.attempts(), 3u);  // 1 initial + 2 retries
    EXPECT_NE(std::string(e.what()).find("retry budget exhausted"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultRecovery, CheckpointOffMakesCrashUnrecoverable) {
  FaultPlan plan;
  plan.add({FaultKind::kCrash, /*round=*/0, /*machine=*/0});
  RecoveryOptions recovery;
  recovery.checkpoint = CheckpointMode::kOff;

  Cluster cluster = small_cluster(plan, recovery);
  cluster.load({{1}, {}, {}, {}});
  EXPECT_THROW(sum_step(cluster), FaultError);
}

TEST(FaultRecovery, CheckpointRoundTripRestoresLocals) {
  // The crashed attempt mutates machine-local words; the replay must start
  // from the snapshot, not the half-mutated state — otherwise the committed
  // locals would show the extra increments.
  const auto clean = run_steps(FaultPlan{}, RecoveryOptions{}, /*steps=*/1);
  FaultPlan plan;
  // Machine 2 crashes, machines 0/1/3 run their (mutating) compute; the
  // whole superstep replays from the checkpoint.
  plan.add({FaultKind::kCrash, /*round=*/0, /*machine=*/2});
  EXPECT_EQ(run_steps(plan, RecoveryOptions{}, /*steps=*/1), clean);
}

TEST(FaultRecovery, PhaseCheckpointingReplaysFurtherBack) {
  FaultPlan plan;
  plan.add({FaultKind::kCrash, /*round=*/2, /*machine=*/0});

  RecoveryOptions round_ckpt;  // default kRound
  Cluster a = small_cluster(plan, round_ckpt);
  a.load({{1}, {}, {}, {}});
  a.mark_phase("test/phase");
  for (int i = 0; i < 3; ++i) sum_step(a);

  RecoveryOptions phase_ckpt;
  phase_ckpt.checkpoint = CheckpointMode::kPhase;
  Cluster b = small_cluster(plan, phase_ckpt);
  b.load({{1}, {}, {}, {}});
  b.mark_phase("test/phase");
  for (int i = 0; i < 3; ++i) sum_step(b);

  // Same fault, but the phase-granular replay rolls back from round 2 to
  // the mark at round 0, so it re-executes strictly more rounds.
  EXPECT_GT(b.recovery_stats().replayed_rounds,
            a.recovery_stats().replayed_rounds);
  // Phase mode charges the one mark_phase snapshot; round mode charges one
  // snapshot per superstep.
  EXPECT_EQ(b.recovery_stats().checkpoints, 1u);
  EXPECT_EQ(a.recovery_stats().checkpoints, 3u);
}

TEST(FaultRecovery, BackoffGrowsExponentially) {
  FaultPlan plan;
  FaultEvent stubborn{FaultKind::kCrash, /*round=*/0, /*machine=*/0};
  stubborn.attempts = 3;
  plan.add(stubborn);
  RecoveryOptions recovery;
  recovery.max_retries = 4;

  Cluster cluster = small_cluster(plan, recovery);
  cluster.load({{1}, {}, {}, {}});
  sum_step(cluster);
  // Three retries of a 1-round superstep at backoff_rounds=1:
  // 1*2^0 + 1*2^1 + 1*2^2 = 7 replayed rounds.
  EXPECT_EQ(cluster.recovery_stats().retries, 3u);
  EXPECT_EQ(cluster.recovery_stats().replayed_rounds, 7u);
}

// ---- Primitive level & central charges ----

TEST(FaultRecovery, PrimitivesReplayToIdenticalResults) {
  std::vector<std::uint64_t> values(100);
  std::iota(values.begin(), values.end(), 1);

  Cluster clean = small_cluster();
  const auto clean_prefix = mpc::prefix_sum_exclusive(clean, values);
  const auto clean_sum = mpc::reduce_sum(clean, values);

  FaultPlan plan;
  plan.add({FaultKind::kCrash, /*round=*/0, /*machine=*/0});
  plan.add({FaultKind::kDrop, /*round=*/clean.metrics().rounds() / 2,
            /*machine=*/1, /*message=*/0});
  Cluster faulty = small_cluster(plan);
  EXPECT_EQ(mpc::prefix_sum_exclusive(faulty, values), clean_prefix);
  EXPECT_EQ(mpc::reduce_sum(faulty, values), clean_sum);
  EXPECT_GT(faulty.recovery_stats().faults_injected, 0u);
  EXPECT_EQ(faulty.metrics().rounds(), clean.metrics().rounds());
}

TEST(FaultRecovery, WindowsTileAcrossCentralCharges) {
  // Rounds charged by a centrally-simulated stage (Cluster::charge with
  // no body) still form fault windows: an event keyed inside such a stage
  // fires at that stage, not never.
  FaultPlan plan;
  plan.add({FaultKind::kCrash, /*round=*/3, /*machine=*/0});

  Cluster cluster = small_cluster(plan);
  cluster.charge("test/stage_a", 2, 0);  // rounds [0, 2)
  cluster.charge("test/stage_b", 5, 0);  // rounds [2, 7) — fires
  EXPECT_EQ(cluster.recovery_stats().crashes, 1u);
  EXPECT_EQ(cluster.recovery_stats().retries_by_label.count("test/stage_b"),
            1u);
}

// ---- Solver API surface ----

TEST(FaultSolverApi, ValidateRejectsMalformedPlan) {
  SolveOptions options;
  FaultEvent bad{FaultKind::kCrash, 1, 0};
  bad.attempts = 0;
  options.faults.add(bad);
  EXPECT_EQ(Solver(options).validate().code(), StatusCode::kInvalidFaultPlan);
}

TEST(FaultSolverApi, ValidateRejectsBadRetryBudget) {
  SolveOptions options;
  options.faults.add({FaultKind::kCrash, 1, 0});
  options.recovery.backoff_rounds = 0;
  EXPECT_EQ(Solver(options).validate().code(), StatusCode::kInvalidRetryBudget);

  SolveOptions too_many;
  too_many.faults.add({FaultKind::kCrash, 1, 0});
  too_many.recovery.max_retries = RecoveryOptions::kMaxRetries + 1;
  EXPECT_EQ(Solver(too_many).validate().code(), StatusCode::kInvalidRetryBudget);
}

TEST(FaultSolverApi, ValidateRejectsStaticallyUnrecoverablePlans) {
  // Crash with checkpointing off: nothing to roll back to.
  SolveOptions no_ckpt;
  no_ckpt.faults.add({FaultKind::kCrash, 1, 0});
  no_ckpt.recovery.checkpoint = CheckpointMode::kOff;
  EXPECT_EQ(Solver(no_ckpt).validate().code(), StatusCode::kUnrecoverableFault);

  // Persistent crash outliving the retry budget.
  SolveOptions persistent;
  FaultEvent stubborn{FaultKind::kCrash, 1, 0};
  stubborn.attempts = 5;
  persistent.faults.add(stubborn);
  persistent.recovery.max_retries = 4;
  EXPECT_EQ(Solver(persistent).validate().code(),
            StatusCode::kUnrecoverableFault);

  // Stragglers/duplicates need no checkpoint: admissible with kOff.
  SolveOptions benign;
  FaultEvent slow;
  slow.kind = FaultKind::kStraggler;
  slow.round = 1;
  benign.faults.add(slow);
  benign.recovery.checkpoint = CheckpointMode::kOff;
  EXPECT_TRUE(Solver(benign).validate().ok());
}

TEST(FaultSolverApi, ValidateRejectsDegenerateClusterOverrides) {
  SolveOptions options;
  options.cluster.machine_space = 1;  // Cluster requires S >= 2
  EXPECT_EQ(Solver(options).validate().code(),
            StatusCode::kInvalidClusterOverrides);
}

TEST(FaultSolverApi, SolverOwnedClusterCarriesFaultPlan) {
  SolveOptions options;
  options.faults.add({FaultKind::kCrash, 1, 0});
  options.cluster.machine_space = 256;
  options.cluster.num_machines = 32;
  const auto cluster = Solver(options).cluster(100, 400);
  EXPECT_EQ(cluster.space(), 256u);
  EXPECT_EQ(cluster.machines(), 32u);
  EXPECT_EQ(cluster.fault_plan().events().size(), 1u);
}

TEST(FaultSolverApi, SolverOwnedClusterCarriesObservers) {
  // Solver::cluster() sets the cluster up like a solve does: the trace
  // session binds to this cluster's Metrics, and the event bus sees its
  // round charges.
  obs::CollectorSink sink;
  obs::TraceSession session(&sink);
  obs::CollectorEventSink collector;
  obs::EventBus bus;
  ASSERT_TRUE(bus.subscribe(&collector));
  SolveOptions options;
  options.trace = &session;
  options.events = &bus;
  auto cluster = Solver(options).cluster(100, 400);
  ASSERT_EQ(cluster.trace(), &session);
  EXPECT_EQ(session.metrics(), &cluster.metrics());
  {
    obs::Span span(cluster.trace(), "test/span");
    cluster.charge("test/charge", 1, 0);
  }
  session.finish();

  const obs::TraceEvent* span_end = nullptr;
  for (const auto& event : sink.events()) {
    if (event.kind == obs::EventKind::kSpanEnd && event.name == "test/span") {
      span_end = &event;
    }
  }
  ASSERT_NE(span_end, nullptr);
  std::int64_t span_rounds = -1;
  for (const auto& arg : span_end->args) {
    if (arg.key == "rounds") span_rounds = std::get<std::int64_t>(arg.value);
  }
  EXPECT_EQ(span_rounds, 1);
  EXPECT_EQ(cluster.metrics().rounds(), 1u);

  std::uint64_t rounds_completed = 0;
  for (const auto& event : collector.events()) {
    if (event.type != obs::EventType::kRoundCompleted) continue;
    ++rounds_completed;
    EXPECT_EQ(event.label, "test/charge");
    EXPECT_EQ(event.rounds, 1u);
  }
  EXPECT_EQ(rounds_completed, 1u);
}

TEST(FaultSolverApi, EndToEndSolveIsIdenticalAndLedgersOverhead) {
  const auto g = graph::gnm(300, 2400, 7);
  const auto clean = Solver(SolveOptions{}).mis(g);

  SolveOptions options;
  options.faults.add({FaultKind::kCrash, /*round=*/2, /*machine=*/0});
  options.faults.add({FaultKind::kDrop, /*round=*/11, /*machine=*/1,
                      /*message=*/0});
  const auto faulty = Solver(options).mis(g);

  EXPECT_EQ(faulty.in_set, clean.in_set);
  EXPECT_EQ(faulty.report.metrics.rounds(), clean.report.metrics.rounds());
  EXPECT_GT(faulty.report.recovery.faults_injected, 0u);
  EXPECT_GT(faulty.report.recovery.retries, 0u);
  EXPECT_TRUE(clean.report.recovery.clean());
}

TEST(FaultSolverApi, ExhaustionSurfacesAsFaultErrorFromSolve) {
  const auto g = graph::gnm(200, 1600, 8);
  SolveOptions options;
  FaultEvent stubborn{FaultKind::kCrash, /*round=*/1, /*machine=*/0};
  stubborn.attempts = RecoveryOptions{}.max_retries + 1;
  options.faults.add(stubborn);
  // validate() flags this statically, and solve enforces it up front: the
  // caller gets the typed status before any work runs, never a hang.
  EXPECT_EQ(Solver(options).validate().code(), StatusCode::kUnrecoverableFault);
  try {
    Solver(options).mis(g);
    FAIL() << "expected OptionsError";
  } catch (const OptionsError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kUnrecoverableFault);
  }
}

TEST(FaultSolverApi, ReportCarriesSchemaVersionAndRecovery) {
  const auto g = graph::gnm(200, 1600, 9);
  SolveOptions options;
  options.faults.add({FaultKind::kCrash, /*round=*/2, /*machine=*/0});
  const Solver solver(options);
  const auto solution = solver.mis(g);

  const Json typed = to_json(solution.report);
  EXPECT_EQ(typed.at("schema_version").as_int64(), kReportSchemaVersion);
  EXPECT_EQ(typed.at("algorithm").as_string(),
            solution.report.algorithm_used);
  EXPECT_EQ(typed.at("recovery").at("retries").as_int64(),
            static_cast<std::int64_t>(solution.report.recovery.retries));

  const std::string json = solver.report_json(solution.report);
  EXPECT_NE(json.find("\"schema_version\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recovery\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"retries_by_label\""), std::string::npos) << json;
  // Schema >= 4: the golden model section of the solve's registry rides
  // along; schema 6 additionally types the storage recovery sub-block.
  EXPECT_NE(json.find("\"registry\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mpc/rounds\""), std::string::npos) << json;
}

TEST(FaultSolverApi, TraceRecoveryEventsAreOptIn) {
  // Golden traces stay identical because recovery instants are off by
  // default; turning them on is the observability hook.
  const auto g = graph::gnm(200, 1600, 10);
  SolveOptions options;
  options.faults.add({FaultKind::kCrash, /*round=*/2, /*machine=*/0});

  auto trace_of = [&](bool trace_recovery) {
    std::ostringstream out;
    obs::JsonlTraceSink sink(&out, /*include_wall_time=*/false);
    obs::TraceSession session(&sink);
    auto local = options;
    local.trace = &session;
    local.recovery.trace_recovery = trace_recovery;
    Solver(local).mis(g);
    session.finish();
    return out.str();
  };

  const std::string quiet = trace_of(false);
  const std::string chatty = trace_of(true);
  EXPECT_EQ(quiet.find("recovery/retry"), std::string::npos);
  EXPECT_NE(chatty.find("recovery/retry"), std::string::npos);
  EXPECT_NE(chatty.find("recovery/checkpoint"), std::string::npos);
}

}  // namespace
}  // namespace dmpc
