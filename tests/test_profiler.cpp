// Tests for the round profiler (obs/profiler.hpp): integer-exact Gini,
// window/commit semantics, ring eviction, top-k attribution, registry
// export, the report JSON profile block (profiled schema version behind
// SolveOptions::profile, 4 without), and host-side scope accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "obs/events.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "support/json.hpp"

namespace dmpc {
namespace {

constexpr std::uint64_t kAnyMachine = ~0ull;

// ---- Gini ----

TEST(Gini, DegenerateInputsAreZero) {
  EXPECT_EQ(obs::gini_ppm({}), 0u);
  EXPECT_EQ(obs::gini_ppm({42}), 0u);
  EXPECT_EQ(obs::gini_ppm({0, 0, 0}), 0u);
  EXPECT_EQ(obs::gini_ppm({7, 7, 7, 7}), 0u);
}

TEST(Gini, ExactSmallCases) {
  // {0, 10}: sum |x_i - x_j| = 10; n * sum = 20 -> 500000 ppm.
  EXPECT_EQ(obs::gini_ppm({0, 10}), 500000u);
  EXPECT_EQ(obs::gini_ppm({10, 0}), 500000u);  // sorts its argument
  // {10, 20, 30}: pairwise diffs 10+20+10 = 40; n * sum = 180.
  EXPECT_EQ(obs::gini_ppm({10, 20, 30}), 40ull * 1000000 / 180);
  // All mass on one of n slots approaches (n-1)/n.
  EXPECT_EQ(obs::gini_ppm({100, 0, 0, 0}), 750000u);
}

TEST(Gini, LargeValuesDoNotOverflow) {
  // Values near 2^32 with n = 1000 exceed 64-bit in the pair-sum
  // intermediate; the implementation must stay exact (__int128).
  std::vector<std::uint64_t> samples(1000, 0);
  samples[0] = 1ull << 40;
  // One loaded slot of n: gini = (n-1)/n exactly.
  EXPECT_EQ(obs::gini_ppm(samples), 999ull * 1000000 / 1000);
}

// ---- RoundProfiler windows ----

TEST(RoundProfiler, CommitFoldsWindowIntoRecord) {
  obs::RoundProfiler profiler;
  profiler.observe_load(10, 0);
  profiler.observe_load(30, 2);
  profiler.observe_load(20, kAnyMachine);
  profiler.commit("alpha", /*round_end=*/5, /*rounds=*/1,
                  /*total_communication=*/60);

  const auto snap = profiler.snapshot();
  ASSERT_EQ(snap.ring.size(), 1u);
  const auto& r = snap.ring[0];
  EXPECT_EQ(r.label, "alpha");
  EXPECT_EQ(r.round_begin, 0u);
  EXPECT_EQ(r.round_end, 5u);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.comm_words, 60u);
  EXPECT_EQ(r.load_count, 3u);
  EXPECT_EQ(r.load_sum, 60u);
  EXPECT_EQ(r.load_max, 30u);
  EXPECT_EQ(r.mean_load, 20u);
  EXPECT_EQ(r.attributed, 2u);  // kAnyMachine does not count
  EXPECT_EQ(r.gini_ppm, obs::gini_ppm({10, 30, 20}));
  // Top entries: words descending; kAnyMachine serializes as machine -1.
  ASSERT_EQ(r.top.size(), 3u);
  EXPECT_EQ(r.top[0].words, 30u);
  EXPECT_EQ(r.top[0].machine, 2);
  EXPECT_EQ(r.top[1].words, 20u);
  EXPECT_EQ(r.top[1].machine, -1);
  EXPECT_EQ(r.top[2].words, 10u);
  EXPECT_EQ(r.top[2].machine, 0);

  EXPECT_EQ(snap.load_max, 30u);
  EXPECT_EQ(snap.gini_max_ppm, r.gini_ppm);
  ASSERT_EQ(snap.by_label.count("alpha"), 1u);
  EXPECT_EQ(snap.by_label.at("alpha").records, 1u);
  EXPECT_EQ(snap.by_label.at("alpha").load_sum, 60u);
}

TEST(RoundProfiler, WindowsTileTheRoundAndCommAxes) {
  obs::RoundProfiler profiler;
  profiler.observe_load(4, 1);
  profiler.commit("a", 3, 3, 100);
  // Empty window: the commit still records the round/comm deltas.
  profiler.commit("b", 5, 2, 140);

  const auto snap = profiler.snapshot();
  ASSERT_EQ(snap.ring.size(), 2u);
  EXPECT_EQ(snap.ring[0].round_begin, 0u);
  EXPECT_EQ(snap.ring[0].round_end, 3u);
  EXPECT_EQ(snap.ring[0].comm_words, 100u);
  EXPECT_EQ(snap.ring[1].round_begin, 3u);
  EXPECT_EQ(snap.ring[1].round_end, 5u);
  EXPECT_EQ(snap.ring[1].rounds, 2u);
  EXPECT_EQ(snap.ring[1].comm_words, 40u);
  EXPECT_EQ(snap.ring[1].load_count, 0u);
  EXPECT_EQ(snap.ring[1].gini_ppm, 0u);
}

TEST(RoundProfiler, RingEvictsOldestButTotalsCoverEverything) {
  obs::RoundProfiler profiler(/*ring_capacity=*/2);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    profiler.observe_load(i, i);
    profiler.commit("x", i, 1, 10 * i);
  }
  const auto snap = profiler.snapshot();
  EXPECT_EQ(snap.records_committed, 5u);
  EXPECT_EQ(snap.records_dropped, 3u);
  ASSERT_EQ(snap.ring.size(), 2u);
  EXPECT_EQ(snap.ring[0].round_end, 4u);  // oldest retained
  EXPECT_EQ(snap.ring[1].round_end, 5u);
  // by_label still covers the evicted records.
  EXPECT_EQ(snap.by_label.at("x").records, 5u);
  EXPECT_EQ(snap.by_label.at("x").load_sum, 1u + 2 + 3 + 4 + 5);
  EXPECT_EQ(snap.by_label.at("x").comm_words, 50u);
}

TEST(RoundProfiler, TopKIsCappedAndDeterministic) {
  obs::RoundProfiler profiler;
  for (std::uint64_t m = 0; m < 10; ++m) {
    profiler.observe_load(100 - m, m);  // descending words by machine
  }
  profiler.commit("top", 1, 1, 0);
  const auto snap = profiler.snapshot();
  ASSERT_EQ(snap.ring.size(), 1u);
  const auto& top = snap.ring[0].top;
  ASSERT_EQ(top.size(), obs::RoundProfiler::kTopK);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].words, 100 - i);
    EXPECT_EQ(top[i].machine, static_cast<std::int64_t>(i));
  }
}

TEST(RoundProfiler, SampleCapDropsGiniSamplesNotTotals) {
  obs::RoundProfiler profiler;
  const std::size_t n = obs::RoundProfiler::kSampleCap + 10;
  for (std::size_t i = 0; i < n; ++i) profiler.observe_load(1, 0);
  profiler.commit("cap", 1, 1, 0);
  const auto snap = profiler.snapshot();
  EXPECT_EQ(snap.samples_dropped, 10u);
  ASSERT_EQ(snap.ring.size(), 1u);
  EXPECT_EQ(snap.ring[0].load_count, n);  // exact despite the cap
  EXPECT_EQ(snap.ring[0].load_sum, n);
  EXPECT_EQ(snap.ring[0].gini_ppm, 0u);
}

TEST(RoundProfiler, ResetClearsEverything) {
  obs::RoundProfiler profiler;
  profiler.observe_load(9, 1);
  profiler.commit("r", 2, 2, 20);
  profiler.reset();
  const auto snap = profiler.snapshot();
  EXPECT_EQ(snap.records_committed, 0u);
  EXPECT_TRUE(snap.ring.empty());
  EXPECT_TRUE(snap.by_label.empty());
  EXPECT_EQ(snap.load_max, 0u);
}

// ---- Snapshot export and JSON ----

TEST(ProfileSnapshot, ExportWritesModelSectionCounters) {
  obs::RoundProfiler profiler;
  profiler.observe_load(10, 0);
  profiler.observe_load(30, 1);
  profiler.commit("exp", 4, 4, 40);
  auto snap = profiler.snapshot();
  snap.enabled = true;

  obs::RegistryScope scope;
  snap.export_to(obs::MetricsRegistry::current());
  const auto exported = scope.registry().snapshot();
  const auto* records = exported.find("profile/records");
  const auto* rounds = exported.find("profile/rounds");
  const auto* load_obs = exported.find("profile/load_observations");
  ASSERT_NE(records, nullptr);
  ASSERT_NE(rounds, nullptr);
  ASSERT_NE(load_obs, nullptr);
  EXPECT_EQ(records->value, 1);
  EXPECT_EQ(rounds->value, 4);
  EXPECT_EQ(load_obs->value, 2);
  EXPECT_EQ(records->section, obs::MetricSection::kModel);
}

TEST(ProfileSnapshot, DisabledExportIsANoOp) {
  // A default-constructed snapshot (no profiler attached) must not touch the
  // registry; this is what every unprofiled solve exports.
  obs::ProfileSnapshot snap;
  ASSERT_FALSE(snap.enabled);
  obs::RegistryScope scope;
  snap.export_to(obs::MetricsRegistry::current());
  EXPECT_TRUE(scope.registry().snapshot().entries.empty());
}

TEST(ProfileSnapshot, JsonBlockIsIntegerOnlyAndComplete) {
  obs::RoundProfiler profiler;
  profiler.observe_load(5, 3);
  profiler.commit("j", 2, 2, 10);
  auto snap = profiler.snapshot();
  snap.enabled = true;
  const Json json = to_json(snap);
  EXPECT_EQ(json.at("ring_capacity").as_int64(),
            static_cast<std::int64_t>(obs::RoundProfiler::kDefaultRingCapacity));
  EXPECT_EQ(json.at("records_committed").as_int64(), 1);
  EXPECT_EQ(json.at("load_max").as_int64(), 5);
  const Json& ring = json.at("ring");
  ASSERT_EQ(ring.items().size(), 1u);
  EXPECT_EQ(ring.items()[0].at("label").as_string(), "j");
  EXPECT_EQ(ring.items()[0].at("top").items()[0].at("machine").as_int64(), 3);
  const Json& by_label = json.at("by_label");
  EXPECT_EQ(by_label.at("j").at("records").as_int64(), 1);
  // No floats anywhere in the serialized block.
  EXPECT_EQ(json.dump().find('.'), std::string::npos);
}

// ---- Solver integration ----

TEST(ProfiledSolve, ReportCarriesProfileBlock) {
  const auto g = graph::gnm(300, 2400, 9);
  SolveOptions options;
  options.profile = true;
  const auto solution = Solver(options).mis(g);
  const auto& profile = solution.report.profile;
  EXPECT_TRUE(profile.enabled);
  EXPECT_GT(profile.records_committed, 0u);
  EXPECT_GT(profile.load_max, 0u);
  EXPECT_FALSE(profile.by_label.empty());
  // Every ring record's window statistics are internally consistent.
  for (const auto& r : solution.report.profile.ring) {
    EXPECT_LE(r.round_begin, r.round_end);
    EXPECT_LE(r.load_max, profile.load_max);
    if (r.load_count > 0) {
      EXPECT_EQ(r.mean_load, r.load_sum / r.load_count);
      EXPECT_LE(r.top.size(), obs::RoundProfiler::kTopK);
    }
  }
  const std::string json = to_json(solution.report).dump();
  EXPECT_NE(json.find("\"schema_version\":9"), std::string::npos);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
}

TEST(ProfiledSolve, OffByDefaultHasNoProfileKey) {
  const auto g = graph::gnm(300, 2400, 9);
  const auto solution = Solver(SolveOptions{}).mis(g);
  EXPECT_FALSE(solution.report.profile.enabled);
  const std::string json = to_json(solution.report).dump();
  EXPECT_NE(json.find("\"schema_version\":9"), std::string::npos);
  EXPECT_EQ(json.find("\"profile\""), std::string::npos);
}

/// The profile and the round_completed stream read the same charge the
/// ledger records: each charge closes its own window after its words land.
void expect_observers_match_ledger(const SolveReport& report,
                                   const obs::MetricsSnapshot& registry,
                                   const obs::CollectorEventSink& events,
                                   const std::string& what) {
  const mpc::Metrics& ledger = report.metrics;
  const auto& profile = report.profile.by_label;
  for (const auto& [label, cost] : ledger.by_label()) {
    if (cost.rounds == 0 && cost.communication == 0) continue;
    ASSERT_TRUE(profile.count(label)) << what << " " << label;
    EXPECT_EQ(profile.at(label).rounds, cost.rounds) << what << " " << label;
    EXPECT_EQ(profile.at(label).comm_words, cost.communication)
        << what << " " << label;
  }
  for (const auto& [label, summary] : profile) {
    ASSERT_TRUE(ledger.by_label().count(label)) << what << " " << label;
  }
  const auto* comm = registry.find("profile/comm_words");
  ASSERT_NE(comm, nullptr) << what;
  EXPECT_EQ(comm->value, registry.find("mpc/communication")->value) << what;
  std::uint64_t rounds = 0;
  const obs::ProgressEvent* last = nullptr;
  for (const auto& e : events.events()) {
    if (e.type != obs::EventType::kRoundCompleted) continue;
    rounds += e.rounds;
    last = &e;
  }
  EXPECT_EQ(rounds, ledger.rounds()) << what;
  ASSERT_NE(last, nullptr) << what;
  EXPECT_EQ(last->comm_words, ledger.total_communication()) << what;
}

TEST(ProfiledSolve, ProfileDoesNotPerturbSolutionOrMetrics) {
  const auto gnm = graph::gnm(300, 2400, 9);
  const auto regular = graph::random_regular(256, 4, 9);
  struct Case {
    const char* what;
    const graph::Graph* g;
    Algorithm algorithm;
    bool matching;
  };
  for (const Case& c : {Case{"sparse mis", &gnm, Algorithm::kSparsification,
                             false},
                        Case{"sparse matching", &gnm,
                             Algorithm::kSparsification, true},
                        Case{"lowdeg mis", &regular, Algorithm::kLowDegree,
                             false}}) {
    SolveOptions plain;
    plain.algorithm = c.algorithm;
    SolveOptions profiled = plain;
    profiled.profile = true;
    obs::CollectorEventSink collector;
    obs::EventBus bus;
    ASSERT_TRUE(bus.subscribe(&collector));
    profiled.events = &bus;
    const Solver plain_solver(plain);
    const Solver profiled_solver(profiled);
    SolveReport a, b;
    if (c.matching) {
      const auto x = plain_solver.maximal_matching(*c.g);
      const auto y = profiled_solver.maximal_matching(*c.g);
      EXPECT_EQ(x.matching, y.matching) << c.what;
      a = x.report;
      b = y.report;
    } else {
      const auto x = plain_solver.mis(*c.g);
      const auto y = profiled_solver.mis(*c.g);
      EXPECT_EQ(x.in_set, y.in_set) << c.what;
      a = x.report;
      b = y.report;
    }
    EXPECT_EQ(a.metrics.rounds(), b.metrics.rounds()) << c.what;
    EXPECT_EQ(a.metrics.total_communication(),
              b.metrics.total_communication())
        << c.what;
    EXPECT_EQ(a.metrics.by_label(), b.metrics.by_label()) << c.what;
    // Profile totals agree with the metrics the solve already reports.
    EXPECT_EQ(b.profile.load_max, b.metrics.peak_machine_load()) << c.what;
    expect_observers_match_ledger(b, profiled_solver.metrics_snapshot(),
                                  collector, c.what);
  }
}

// ---- Host-side scopes ----

TEST(HostScope, AddsHostSectionCountersOnDestruction) {
  obs::RegistryScope metrics;
  {
    obs::HostScope scope("test/host_scope");
    std::vector<std::uint64_t> work(4096, 1);
    volatile std::uint64_t sink = 0;
    for (const auto v : work) sink += v;
  }
  const auto snap = metrics.registry().snapshot();
  const auto* calls = snap.find("host/test/host_scope/calls");
  const auto* wall = snap.find("host/test/host_scope/wall_ns");
  ASSERT_NE(calls, nullptr);
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(calls->value, 1);
  EXPECT_EQ(calls->section, obs::MetricSection::kHost);
  EXPECT_GE(wall->value, 0);
}

TEST(HostScope, AllocCountersAreMonotoneWhenHooked) {
  const auto before = obs::thread_alloc_counters();
  {
    auto* p = new std::vector<std::uint64_t>(1024, 7);
    p->at(0) = 9;
    delete p;
  }
  const auto after = obs::thread_alloc_counters();
  if (after.allocations == 0) {
    GTEST_SKIP() << "alloc hooks compiled out (sanitizer/fuzzer build)";
  }
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GT(after.bytes, before.bytes);
  EXPECT_GT(after.frees, before.frees);
}

TEST(HostScope, ThreadCpuClockAdvances) {
  const auto t0 = obs::thread_cpu_time_ns();
  volatile std::uint64_t x = 0;
  for (std::uint64_t i = 0; i < 2000000; ++i) x += i;
  EXPECT_GE(obs::thread_cpu_time_ns(), t0);
}

}  // namespace
}  // namespace dmpc
