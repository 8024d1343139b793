// Progress-event stream (obs/events.hpp): filter grammar, bus semantics,
// JSONL serialization, the deterministic model projection, report schema
// stamping, and the unwind-flush contract (sinks flushed before a
// CertificationError escapes Solver::solve).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "obs/events.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace dmpc {
namespace {

using obs::EventBus;
using obs::EventFilter;
using obs::EventSection;
using obs::EventType;
using obs::ProgressEvent;

// ---- Filter grammar ----

TEST(EventFilter, DefaultPassesEverything) {
  EventFilter filter;
  EXPECT_TRUE(filter.passes_all());
  EXPECT_EQ(filter.mask(), EventFilter::kAll);
  for (auto type : {EventType::kSolveStarted, EventType::kRoundCompleted,
                    EventType::kRecovered, EventType::kCertificateClaim}) {
    EXPECT_TRUE(filter.passes(type));
  }
}

TEST(EventFilter, ParseSingleCategory) {
  const EventFilter filter = obs::parse_event_filter("round");
  EXPECT_TRUE(filter.passes(EventType::kRoundCompleted));
  EXPECT_FALSE(filter.passes(EventType::kSolveStarted));
  EXPECT_FALSE(filter.passes(EventType::kRecoveryAttempt));
  EXPECT_EQ(obs::event_filter_to_string(filter), "round");
}

TEST(EventFilter, ParseMultipleCategoriesCanonicalizes) {
  // to_string prints categories in fixed declaration order regardless of
  // the input order.
  const EventFilter filter = obs::parse_event_filter("recovery,round");
  EXPECT_EQ(obs::event_filter_to_string(filter), "round,recovery");
  EXPECT_TRUE(filter.passes(EventType::kRecoveryAttempt));
  EXPECT_TRUE(filter.passes(EventType::kRecovered));
  EXPECT_TRUE(filter.passes(EventType::kRoundCompleted));
  EXPECT_FALSE(filter.passes(EventType::kCheckpointTaken));
}

TEST(EventFilter, ParseAllKeyword) {
  const EventFilter filter = obs::parse_event_filter("all");
  EXPECT_TRUE(filter.passes_all());
  EXPECT_EQ(obs::event_filter_to_string(filter), "all");
}

TEST(EventFilter, RoundTripEveryMask) {
  // parse(to_string(f)) == f for every non-empty mask — the contract the
  // fuzz driver (tools/fuzz) pins on arbitrary inputs.
  for (std::uint32_t mask = 1; mask <= EventFilter::kAll; ++mask) {
    const EventFilter filter(mask);
    const EventFilter back =
        obs::parse_event_filter(obs::event_filter_to_string(filter));
    EXPECT_EQ(back.mask(), filter.mask()) << "mask=" << mask;
  }
}

TEST(EventFilter, ParseRejectsMalformedLists) {
  for (const char* text : {"", "round,", ",round", "round,,recovery", "bogus",
                           "round,round", "ROUND", "all,round", " round"}) {
    try {
      obs::parse_event_filter(text);
      FAIL() << "accepted '" << text << "'";
    } catch (const OptionsError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kInvalidEventFilter) << text;
    }
  }
}

// ---- Bus semantics ----

TEST(EventBus, AssignsDensePerSectionSeq) {
  obs::CollectorEventSink collector;
  EventBus bus;
  ASSERT_TRUE(bus.subscribe(&collector));
  for (auto type : {EventType::kSolveStarted, EventType::kCheckpointTaken,
                    EventType::kRoundCompleted, EventType::kRecoveryAttempt,
                    EventType::kSolveFinished}) {
    ProgressEvent e;
    e.type = type;
    bus.emit(std::move(e));
  }
  bus.finish();
  ASSERT_EQ(collector.events().size(), 5u);
  // Model events number 0,1,2 and recovery events 0,1 independently.
  EXPECT_EQ(collector.events()[0].section, EventSection::kModel);
  EXPECT_EQ(collector.events()[0].seq, 0u);
  EXPECT_EQ(collector.events()[1].section, EventSection::kRecovery);
  EXPECT_EQ(collector.events()[1].seq, 0u);
  EXPECT_EQ(collector.events()[2].section, EventSection::kModel);
  EXPECT_EQ(collector.events()[2].seq, 1u);
  EXPECT_EQ(collector.events()[3].section, EventSection::kRecovery);
  EXPECT_EQ(collector.events()[3].seq, 1u);
  EXPECT_EQ(collector.events()[4].section, EventSection::kModel);
  EXPECT_EQ(collector.events()[4].seq, 2u);
  EXPECT_EQ(bus.model_events(), 3u);
  EXPECT_EQ(bus.recovery_events(), 2u);
  EXPECT_TRUE(collector.finished());
}

TEST(EventBus, FilterDropsButStillConsumesSeq) {
  obs::CollectorEventSink collector;
  EventBus bus;
  ASSERT_TRUE(bus.subscribe(&collector));
  bus.set_filter(obs::parse_event_filter("solve"));
  for (auto type : {EventType::kSolveStarted, EventType::kRoundCompleted,
                    EventType::kSolveFinished}) {
    ProgressEvent e;
    e.type = type;
    bus.emit(std::move(e));
  }
  bus.finish();
  // The round event was dropped, but the numbering is filter-independent:
  // solve_finished still carries seq 2.
  ASSERT_EQ(collector.events().size(), 2u);
  EXPECT_EQ(collector.events()[0].seq, 0u);
  EXPECT_EQ(collector.events()[1].seq, 2u);
  EXPECT_EQ(bus.model_events(), 3u);
  EXPECT_EQ(bus.filtered_events(), 1u);
}

TEST(EventBus, SubscribeRefusesPastCapAndNull) {
  EventBus bus;
  EXPECT_FALSE(bus.subscribe(nullptr));
  std::vector<obs::CollectorEventSink> sinks(EventBus::kMaxSubscribers + 1);
  for (std::size_t i = 0; i < EventBus::kMaxSubscribers; ++i) {
    EXPECT_TRUE(bus.subscribe(&sinks[i]));
  }
  EXPECT_FALSE(bus.subscribe(&sinks[EventBus::kMaxSubscribers]));
  EXPECT_EQ(bus.subscriber_count(), EventBus::kMaxSubscribers);
}

TEST(EventBus, FinishIsIdempotentAndStopsEmission) {
  obs::CollectorEventSink collector;
  EventBus bus;
  ASSERT_TRUE(bus.subscribe(&collector));
  bus.emit(ProgressEvent{});
  bus.finish();
  bus.finish();
  bus.emit(ProgressEvent{});  // ignored after finish
  EXPECT_EQ(collector.events().size(), 1u);
  EXPECT_TRUE(bus.finished());
}

// ---- Serialization ----

TEST(EventJsonl, FixedFieldOrderAndHostQuarantine) {
  ProgressEvent e;
  e.type = EventType::kRoundCompleted;
  e.section = EventSection::kModel;
  e.seq = 3;
  e.label = "phase/x";
  e.round = 7;
  e.rounds = 1;
  e.comm_words = 42;
  e.host_wall_ns = 999;
  e.host_unix_ms = 123456;
  const std::string with_host = obs::event_to_jsonl(e, /*include_host=*/true);
  const std::string stripped = obs::event_to_jsonl(e, /*include_host=*/false);
  EXPECT_NE(with_host.find("\"host\":{\"wall_ns\":999,\"unix_ms\":123456}"),
            std::string::npos);
  EXPECT_EQ(stripped.find("\"host\""), std::string::npos);
  // The stream version stamps every record.
  EXPECT_EQ(stripped.rfind("{\"v\":1,\"section\":\"model\",\"seq\":3,", 0), 0u);
  // Stripping host is a pure suffix removal: the model prefix is shared.
  EXPECT_EQ(with_host.compare(0, stripped.size() - 1, stripped, 0,
                              stripped.size() - 1),
            0);
}

TEST(EventJsonl, SinkWritesOneLinePerEvent) {
  std::ostringstream out;
  obs::JsonlEventSink sink(&out, /*include_host=*/false);
  EventBus bus;
  ASSERT_TRUE(bus.subscribe(&sink));
  bus.emit(ProgressEvent{});
  bus.emit(ProgressEvent{});
  bus.finish();
  const std::string text = out.str();
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
}

TEST(EventProgressLine, LifecycleEventsAlwaysPrint) {
  std::ostringstream out;
  obs::ProgressLineSink sink(&out, /*min_interval_ms=*/1000000);
  EventBus bus;
  ASSERT_TRUE(bus.subscribe(&sink));
  ProgressEvent started;
  started.type = EventType::kSolveStarted;
  started.label = "mis";
  bus.emit(std::move(started));
  // Round events are throttled by host wall clock (interval is huge here),
  // lifecycle events are urgent and always print.
  ProgressEvent round;
  round.type = EventType::kRoundCompleted;
  bus.emit(std::move(round));
  ProgressEvent finished;
  finished.type = EventType::kSolveFinished;
  finished.label = "sparsification";
  bus.emit(std::move(finished));
  bus.finish();
  const std::string text = out.str();
  EXPECT_NE(text.find("solve_started"), std::string::npos);
  EXPECT_NE(text.find("solve_finished"), std::string::npos);
  EXPECT_EQ(text.find("round_completed"), std::string::npos);
}

// ---- Solver integration ----

TEST(EventsSolve, StreamsLifecycleAndCarriesSummaryBlock) {
  const auto g = graph::gnm(300, 2400, 7);
  obs::CollectorEventSink collector;
  EventBus bus;
  ASSERT_TRUE(bus.subscribe(&collector));
  SolveOptions options;
  options.events = &bus;
  const Solver solver(options);
  const auto solution = solver.mis(g);

  // The Solver finished the bus at solve end.
  EXPECT_TRUE(bus.finished());
  EXPECT_TRUE(collector.finished());
  const auto& events = collector.events();
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.front().type, EventType::kSolveStarted);
  EXPECT_EQ(events.front().label, "mis");
  EXPECT_EQ(events.front().value,
            static_cast<std::int64_t>(g.num_nodes()));
  EXPECT_EQ(events.back().type, EventType::kSolveFinished);
  EXPECT_EQ(events.back().label, solution.report.algorithm_used);
  EXPECT_EQ(events.back().round, solution.report.metrics.rounds());
  bool saw_phase = false;
  bool saw_round = false;
  for (const auto& e : events) {
    saw_phase = saw_phase || e.type == EventType::kPhaseStarted;
    saw_round = saw_round || e.type == EventType::kRoundCompleted;
    // Every event carries a host timestamp from the bus.
    EXPECT_GT(e.host_unix_ms, 0);
  }
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_round);

  // Report summary + schema stamp.
  ASSERT_TRUE(solution.report.events.enabled);
  EXPECT_EQ(solution.report.events.stream_version, obs::kEventStreamVersion);
  EXPECT_EQ(solution.report.events.model_events, bus.model_events());
  const std::string json = to_json(solution.report).dump();
  EXPECT_NE(json.find("\"schema_version\":9"), std::string::npos);
  EXPECT_NE(json.find("\"events_summary\""), std::string::npos);
}

TEST(EventsSolve, UnobservedReportHasNoSummaryBlock) {
  const auto g = graph::gnm(200, 800, 9);
  const auto solution = Solver(SolveOptions{}).mis(g);
  const std::string json = to_json(solution.report).dump();
  // No bus attached: no events_summary key, the same schema stamp.
  EXPECT_EQ(json.find("\"events_summary\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":9"), std::string::npos);
  EXPECT_FALSE(solution.report.events.enabled);
}

TEST(EventsSolve, CertifiedSolveEmitsPassingClaimEvents) {
  const auto g = graph::gnm(300, 2400, 7);
  obs::CollectorEventSink collector;
  EventBus bus;
  ASSERT_TRUE(bus.subscribe(&collector));
  SolveOptions options;
  options.events = &bus;
  options.certify = verify::CertifyMode::kAnswer;
  const auto solution = Solver(options).mis(g);
  ASSERT_FALSE(solution.report.certificate.claims.empty());
  std::size_t claim_events = 0;
  for (const auto& e : collector.events()) {
    if (e.type != EventType::kCertificateClaim) continue;
    ++claim_events;
    EXPECT_EQ(e.section, EventSection::kModel);
    EXPECT_NE(e.value, 0) << e.label << " claim event reported failure";
  }
  EXPECT_EQ(claim_events, solution.report.certificate.claims.size());
}

TEST(EventsSolve, ReplaySolvesDoNotPolluteTheStream) {
  // certify=full under a fault plan replays the pipeline fault-free; the
  // replay must not emit into the caller's bus, so the stream matches the
  // single observed solve.
  const auto g = graph::gnm(300, 2400, 7);
  obs::CollectorEventSink plain_collector;
  {
    EventBus bus;
    ASSERT_TRUE(bus.subscribe(&plain_collector));
    SolveOptions options;
    options.events = &bus;
    (void)Solver(options).mis(g);
  }
  obs::CollectorEventSink certified_collector;
  {
    EventBus bus;
    ASSERT_TRUE(bus.subscribe(&certified_collector));
    SolveOptions options;
    options.events = &bus;
    options.certify = verify::CertifyMode::kFull;
    options.faults.add({mpc::FaultKind::kCrash, /*round=*/2, /*machine=*/0});
    (void)Solver(options).mis(g);
  }
  // Model projections agree except for the appended certificate claims —
  // strip those, renumber the dense model seq (claims consumed seq slots
  // ahead of solve_finished), and the streams are byte-identical.
  std::vector<ProgressEvent> certified_model;
  std::uint64_t model_seq = 0;
  for (const auto& e : certified_collector.events()) {
    if (e.type == EventType::kCertificateClaim) continue;
    certified_model.push_back(e);
    if (e.section == EventSection::kModel) {
      certified_model.back().seq = model_seq++;
    }
  }
  EXPECT_EQ(obs::model_projection(certified_model),
            obs::model_projection(plain_collector.events()));
}

// ---- Unwind flush (the CertificationError/FaultError contract) ----

TEST(EventsUnwind, SinksFlushedWhenCertificationFails) {
  // enforce_space off with a deliberately undersized S: the solve runs to
  // completion, then the kSpaceAccounting claim fails in checked mode and
  // CertificationError unwinds out of Solver::mis. Both the event bus and
  // the trace session must be finished before the exception escapes.
  const auto g = graph::gnm(300, 2400, 5);
  obs::CollectorEventSink collector;
  EventBus bus;
  ASSERT_TRUE(bus.subscribe(&collector));
  std::ostringstream trace_out;
  obs::JsonlTraceSink sink(&trace_out, /*include_wall_time=*/false);
  obs::TraceSession session(&sink);
  SolveOptions options;
  options.certify = verify::CertifyMode::kAnswer;
  options.cluster.machine_space = 32;
  options.cluster.enforce_space = false;
  options.events = &bus;
  options.trace = &session;
  EXPECT_THROW(Solver(options).mis(g), verify::CertificationError);

  EXPECT_TRUE(bus.finished());
  EXPECT_TRUE(collector.finished());
  // The stream captured the solve up to and including the failing claim.
  bool saw_failed_claim = false;
  for (const auto& e : collector.events()) {
    if (e.type == EventType::kCertificateClaim && e.value == 0) {
      saw_failed_claim = true;
      EXPECT_EQ(e.detail, "fail");
    }
  }
  EXPECT_TRUE(saw_failed_claim);
  EXPECT_GT(collector.events().size(), 4u);
  // The trace was flushed on the same unwind path.
  EXPECT_FALSE(trace_out.str().empty());
}

}  // namespace
}  // namespace dmpc
