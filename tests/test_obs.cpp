// Tests for the obs tracing subsystem and the per-label metric attribution
// it rides on: span nesting and deterministic ordering, sink output formats,
// golden-trace byte-identity, and the zero-overhead-when-disabled contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "mis/det_mis.hpp"
#include "mpc/faults.hpp"
#include "mpc/metrics.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace dmpc {
namespace {

// --- Minimal JSON well-formedness checker (the repo's Json class is a
// writer; chrome output correctness is asserted by re-parsing it here and
// by `python3 -m json.tool` in CI). ---

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::int64_t find_int_arg(const obs::TraceEvent& event, const std::string& key) {
  for (const auto& a : event.args) {
    if (a.key == key) return std::get<std::int64_t>(a.value);
  }
  ADD_FAILURE() << "missing arg " << key << " on " << event.name;
  return -1;
}

// --- Metrics label attribution (satellite of the span layer). ---

TEST(Metrics, PerLabelAttribution) {
  mpc::Metrics m;
  m.charge("a", 3, 10);
  m.charge("b", 0, 5);
  m.charge("", 2, 7);  // unlabeled: totals only
  m.observe_load(100, "a");
  m.observe_load(40, "a");
  m.observe_load(60, "b");
  m.observe_load(200);  // unlabeled: global peak only

  EXPECT_EQ(m.rounds(), 5u);
  EXPECT_EQ(m.total_communication(), 22u);
  EXPECT_EQ(m.peak_machine_load(), 200u);
  EXPECT_EQ(m.by_label().count(""), 0u);
  EXPECT_EQ(m.by_label().at("a"), (mpc::LabelCost{3, 10, 100}));
  EXPECT_EQ(m.by_label().at("b"), (mpc::LabelCost{0, 5, 60}));
}

// --- Span mechanics. ---

TEST(Trace, NullSessionIsInactiveAndFree) {
  obs::TraceSession session(nullptr);
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(obs::enabled(&session));
  EXPECT_FALSE(obs::enabled(nullptr));
  {
    obs::Span span(&session, "noop");
    EXPECT_FALSE(span.active());
    span.arg("k", std::uint64_t{1});
    session.instant("x");
    obs::trace_primitive(&session, "p", 1, 2);
  }
  obs::Span null_span(nullptr, "noop");
  EXPECT_FALSE(null_span.active());
  session.finish();
  EXPECT_EQ(session.events_emitted(), 0u);
}

TEST(Trace, SpanNestingParentDepthAndOrdering) {
  obs::CollectorSink sink;
  obs::TraceSession session(&sink);
  {
    obs::Span outer(&session, "outer");
    session.instant("tick");
    {
      obs::Span inner(&session, "inner");
      inner.arg("candidates", std::uint64_t{7});
    }
  }
  session.finish();
  EXPECT_EQ(session.open_spans(), 0u);

  const auto& ev = sink.events();
  ASSERT_EQ(ev.size(), 5u);
  // Strictly increasing logical clock starting at 0.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].seq, i);
  }
  EXPECT_EQ(ev[0].kind, obs::EventKind::kSpanBegin);
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[0].parent, 0u);
  EXPECT_EQ(ev[0].depth, 0u);

  EXPECT_EQ(ev[1].kind, obs::EventKind::kInstant);
  EXPECT_EQ(ev[1].name, "tick");
  EXPECT_EQ(ev[1].span, ev[0].span);
  EXPECT_EQ(ev[1].depth, 1u);

  EXPECT_EQ(ev[2].kind, obs::EventKind::kSpanBegin);
  EXPECT_EQ(ev[2].name, "inner");
  EXPECT_EQ(ev[2].parent, ev[0].span);
  EXPECT_EQ(ev[2].depth, 1u);

  EXPECT_EQ(ev[3].kind, obs::EventKind::kSpanEnd);
  EXPECT_EQ(ev[3].name, "inner");
  EXPECT_EQ(find_int_arg(ev[3], "candidates"), 7);

  EXPECT_EQ(ev[4].kind, obs::EventKind::kSpanEnd);
  EXPECT_EQ(ev[4].name, "outer");
}

TEST(Trace, SpanReportsMetricDeltas) {
  mpc::Metrics metrics;
  obs::CollectorSink sink;
  obs::TraceSession session(&sink);
  session.attach_metrics(&metrics);
  metrics.charge("before", 5, 11);
  {
    obs::Span span(&session, "work");
    metrics.charge("work", 3, 9);
  }
  session.finish();
  ASSERT_EQ(sink.events().size(), 2u);
  const auto& end = sink.events()[1];
  EXPECT_EQ(find_int_arg(end, "rounds"), 3);
  EXPECT_EQ(find_int_arg(end, "communication"), 9);
}

// --- End-to-end: a traced MIS run. ---

TEST(Trace, PipelineSpanDeltaMatchesRunTotals) {
  const auto g = graph::gnm(192, 960, 7);
  obs::CollectorSink sink;
  obs::TraceSession session(&sink);
  mis::DetMisConfig config;
  config.setup.trace = &session;
  const auto result = mis::det_mis(g, config);
  session.finish();

  const obs::TraceEvent* pipeline_end = nullptr;
  for (const auto& event : sink.events()) {
    if (event.kind == obs::EventKind::kSpanEnd &&
        event.name == "mis/pipeline") {
      pipeline_end = &event;
    }
  }
  ASSERT_NE(pipeline_end, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(find_int_arg(*pipeline_end, "rounds")),
            result.metrics.rounds());
  EXPECT_EQ(static_cast<std::uint64_t>(
                find_int_arg(*pipeline_end, "communication")),
            result.metrics.total_communication());

  // The structured progress series replaced the free-form debug line: one
  // event per iteration, with the Lemma-12 good-node mass fraction.
  std::uint64_t progress_events = 0;
  for (const auto& event : sink.events()) {
    if (event.kind != obs::EventKind::kInstant ||
        event.name != "mis/progress") {
      continue;
    }
    ++progress_events;
    EXPECT_GE(find_int_arg(event, "iteration"), 1);
    EXPECT_GE(find_int_arg(event, "edges_remaining"), 0);
    bool has_fraction = false;
    for (const auto& a : event.args) {
      if (a.key == "good_node_fraction") {
        has_fraction = true;
        const double f = std::get<double>(a.value);
        EXPECT_GT(f, 0.0);
        EXPECT_LE(f, 1.0);
      }
    }
    EXPECT_TRUE(has_fraction);
  }
  EXPECT_EQ(progress_events, result.iterations);

  // Span aggregation covers the phase decomposition.
  const auto stats = obs::summarize_spans(sink.events());
  std::uint64_t phase_rounds = 0;
  bool saw_derand = false;
  for (const auto& s : stats) {
    if (s.name == "mis/phase/derand") {
      saw_derand = true;
      EXPECT_EQ(s.count, result.iterations);
    }
    if (s.name.rfind("mis/phase/", 0) == 0) phase_rounds += s.rounds;
  }
  EXPECT_TRUE(saw_derand);
  EXPECT_GT(phase_rounds, 0u);
  EXPECT_LE(phase_rounds, result.metrics.rounds());
}

TEST(Trace, DisabledTracingLeavesMetricsIdentical) {
  const auto g = graph::gnm(160, 640, 9);
  mis::DetMisConfig plain_config;
  const auto plain = mis::det_mis(g, plain_config);

  obs::CollectorSink sink;
  obs::TraceSession session(&sink);
  mis::DetMisConfig traced_config;
  traced_config.setup.trace = &session;
  const auto traced = mis::det_mis(g, traced_config);
  session.finish();

  EXPECT_GT(session.events_emitted(), 0u);
  EXPECT_EQ(plain.metrics.rounds(), traced.metrics.rounds());
  EXPECT_EQ(plain.metrics.total_communication(),
            traced.metrics.total_communication());
  EXPECT_EQ(plain.metrics.peak_machine_load(),
            traced.metrics.peak_machine_load());
  EXPECT_EQ(plain.metrics.by_label(), traced.metrics.by_label());
  EXPECT_EQ(plain.in_set, traced.in_set);
}

// --- Sinks. ---

TEST(Sinks, GoldenJsonlTraceIsByteIdentical) {
  const auto g = graph::gnm(160, 800, 11);
  auto run = [&] {
    std::ostringstream out;
    obs::JsonlTraceSink sink(&out, /*include_wall_time=*/false);
    obs::TraceSession session(&sink);
    mis::DetMisConfig config;
    config.setup.trace = &session;
    mis::det_mis(g, config);
    session.finish();
    return out.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Every line is one well-formed JSON object with the fixed field order.
  std::istringstream lines(first);
  std::string line;
  std::uint64_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    EXPECT_EQ(line.rfind("{\"seq\":", 0), 0u) << line;
    EXPECT_EQ(line.find("\"ts_ns\""), std::string::npos) << line;
    ++count;
  }
  EXPECT_GT(count, 4u);
}

TEST(Sinks, JsonlIncludesWallTimeByDefault) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(&out);
  obs::TraceSession session(&sink);
  { obs::Span span(&session, "s"); }
  session.finish();
  EXPECT_NE(out.str().find("\"ts_ns\""), std::string::npos);
}

TEST(Sinks, ChromeTraceIsWellFormedAndBalanced) {
  const auto g = graph::gnm(160, 800, 13);
  std::ostringstream out;
  obs::ChromeTraceSink sink(&out);
  obs::TraceSession session(&sink);
  mis::DetMisConfig config;
  config.setup.trace = &session;
  mis::det_mis(g, config);
  session.finish();

  const std::string text = out.str();
  EXPECT_TRUE(JsonChecker(text).valid());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // Duration events must balance for chrome://tracing to render them.
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = text.find("\"ph\": \"B\"", pos)) != std::string::npos) {
    ++begins;
    ++pos;
  }
  pos = 0;
  while ((pos = text.find("\"ph\": \"E\"", pos)) != std::string::npos) {
    ++ends;
    ++pos;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

TEST(Sinks, CollectorFreezesOnFinishAndClearReopens) {
  obs::CollectorSink sink;
  obs::TraceSession first(&sink);
  { obs::Span span(&first, "kept"); }
  first.finish();
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_TRUE(sink.frozen());

  // A later session attached to the same (finished) sink must not pollute it.
  obs::TraceSession stray(&sink);
  { obs::Span span(&stray, "dropped"); }
  stray.finish();
  EXPECT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].name, "kept");

  sink.clear();
  EXPECT_FALSE(sink.frozen());
  EXPECT_TRUE(sink.events().empty());
  obs::TraceSession reuse(&sink);
  { obs::Span span(&reuse, "fresh"); }
  reuse.finish();
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].name, "fresh");
}

TEST(Sinks, ChromeTraceEmptySessionIsValidAndDoubleFinishSafe) {
  std::ostringstream out;
  obs::ChromeTraceSink sink(&out);
  obs::TraceSession session(&sink);
  session.finish();
  const std::string text = out.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  // finish() is idempotent: a second call must not emit a second document.
  sink.finish();
  EXPECT_EQ(out.str(), text);
}

TEST(Sinks, SummarizeSpansAggregatesByName) {
  obs::CollectorSink sink;
  obs::TraceSession session(&sink);
  mpc::Metrics metrics;
  session.attach_metrics(&metrics);
  for (int i = 0; i < 3; ++i) {
    obs::Span span(&session, "repeat");
    metrics.charge("repeat", 2, 5);
  }
  session.finish();
  const auto stats = obs::summarize_spans(sink.events());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "repeat");
  EXPECT_EQ(stats[0].count, 3u);
  EXPECT_EQ(stats[0].rounds, 6u);
  EXPECT_EQ(stats[0].communication, 15u);
}

// --- Metrics registry (obs/metrics_registry.hpp). Tests use a local
// registry so they cannot perturb the process-global one other tests'
// Solver runs delta against. ---

TEST(Registry, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("mpc/rounds");
  c.add();
  c.add(4);
  auto& g = reg.gauge("host/pool", obs::MetricSection::kHost);
  g.set(10);
  g.add(-3);
  g.record_max(5);   // below current 7: no-op
  g.record_max(12);  // above: takes over
  auto& h = reg.histogram("derand/batch", {1, 4, 16});
  h.observe(0);
  h.observe(4);
  h.observe(100);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  // Name order, not registration order.
  EXPECT_EQ(snap.entries[0].name, "derand/batch");
  EXPECT_EQ(snap.entries[1].name, "host/pool");
  EXPECT_EQ(snap.entries[2].name, "mpc/rounds");
  EXPECT_EQ(snap.find("mpc/rounds")->value, 5);
  EXPECT_EQ(snap.find("host/pool")->value, 12);
  EXPECT_EQ(snap.find("missing"), nullptr);
  const auto* hist = snap.find("derand/batch");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(hist->value, 3);  // observation count
  EXPECT_EQ(hist->sum, 104);
  EXPECT_EQ(hist->bounds, (std::vector<std::uint64_t>{1, 4, 16}));
  // 0 -> [<=1], 4 -> [<=4], 100 -> overflow bucket.
  EXPECT_EQ(hist->counts, (std::vector<std::uint64_t>{1, 1, 0, 1}));
}

TEST(Registry, ReRegistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  auto& first = reg.counter("exec/tasks", obs::MetricSection::kHost);
  first.add(2);
  auto& again = reg.counter("exec/tasks", obs::MetricSection::kHost);
  EXPECT_EQ(&first, &again);
  again.add(3);
  EXPECT_EQ(reg.snapshot().find("exec/tasks")->value, 5);
  ASSERT_EQ(reg.snapshot().entries.size(), 1u);
}

TEST(Registry, LabeledFamilyMembersGetSlashNames) {
  obs::MetricsRegistry reg;
  reg.counter("mpc/communication", "sparsify", obs::MetricSection::kModel)
      .add(7);
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.find("mpc/communication/sparsify"), nullptr);
  EXPECT_EQ(snap.find("mpc/communication/sparsify")->value, 7);
}

// --- Registry scopes: each solve writes into its own registry, which folds
// into the enclosing one when the scope closes. ---

TEST(RegistryScope, OutermostScopeFoldsIntoGlobal) {
  auto& global = obs::MetricsRegistry::global();
  const std::uint64_t before = global.counter("test/scope_to_global").value();
  {
    obs::RegistryScope scope;
    EXPECT_EQ(&obs::MetricsRegistry::current(), &scope.registry());
    obs::MetricsRegistry::current().counter("test/scope_to_global").add(3);
    // Nothing reaches global() while the scope is open.
    EXPECT_EQ(global.counter("test/scope_to_global").value(), before);
  }
  EXPECT_EQ(&obs::MetricsRegistry::current(), &global);
  EXPECT_EQ(global.counter("test/scope_to_global").value(), before + 3);
}

TEST(RegistryScope, NestedScopeFoldsIntoItsParent) {
  obs::RegistryScope outer;
  obs::MetricsRegistry::current().counter("test/nested_first").add(1);
  {
    obs::RegistryScope inner;
    EXPECT_EQ(&obs::MetricsRegistry::current(), &inner.registry());
    obs::MetricsRegistry::current().counter("test/nested_second").add(5);
    obs::MetricsRegistry::current().counter("test/nested_first").add(2);
    // Name order, not the order the inner scope registered them in.
    const auto inner_snap = inner.registry().snapshot();
    ASSERT_EQ(inner_snap.entries.size(), 2u);
    EXPECT_EQ(inner_snap.entries[0].name, "test/nested_first");
    EXPECT_EQ(inner_snap.entries[1].name, "test/nested_second");
    const auto outer_snap = outer.registry().snapshot();
    EXPECT_EQ(outer_snap.find("test/nested_first")->value, 1);
    EXPECT_EQ(outer_snap.find("test/nested_second"), nullptr);
  }
  EXPECT_EQ(&obs::MetricsRegistry::current(), &outer.registry());
  const auto snap = outer.registry().snapshot();
  EXPECT_EQ(snap.find("test/nested_first")->value, 3);
  ASSERT_NE(snap.find("test/nested_second"), nullptr);
  EXPECT_EQ(snap.find("test/nested_second")->value, 5);
  // Folded names the parent lacked take their place in name order.
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "test/nested_first");
  EXPECT_EQ(snap.entries[1].name, "test/nested_second");
}

TEST(RegistryScope, SnapshotOrderIgnoresEnclosingHistory) {
  obs::RegistryScope outer;
  outer.registry().counter("test/order_z").add(1);
  outer.registry().counter("test/order_a").add(1);
  {
    obs::RegistryScope inner;
    inner.registry().counter("test/order_a").add(1);
    inner.registry().counter("test/order_z").add(1);
    const auto inner_snap = inner.registry().snapshot();
    ASSERT_EQ(inner_snap.entries.size(), 2u);
    EXPECT_EQ(inner_snap.entries[0].name, "test/order_a");
    EXPECT_EQ(inner_snap.entries[1].name, "test/order_z");
  }
  const auto outer_snap = outer.registry().snapshot();
  ASSERT_EQ(outer_snap.entries.size(), 2u);
  EXPECT_EQ(outer_snap.entries[0].name, "test/order_a");
  EXPECT_EQ(outer_snap.entries[1].name, "test/order_z");
  EXPECT_EQ(outer_snap.find("test/order_a")->value, 2);
}

TEST(RegistryScope, FoldAddsCountersAndHistogramsAndGaugesTakeInnerValue) {
  obs::RegistryScope outer;
  auto& reg = outer.registry();
  reg.counter("test/fold_counter").add(10);
  reg.gauge("test/fold_gauge", obs::MetricSection::kHost).set(100);
  reg.histogram("test/fold_hist", {8}).observe(3);
  {
    obs::RegistryScope inner;
    auto& cur = obs::MetricsRegistry::current();
    cur.counter("test/fold_counter").add(5);
    cur.gauge("test/fold_gauge", obs::MetricSection::kHost).set(40);
    cur.histogram("test/fold_hist", {8}).observe(20);
  }
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("test/fold_counter")->value, 15);
  EXPECT_EQ(snap.find("test/fold_gauge")->value, 40);
  const auto* hist = snap.find("test/fold_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->value, 2);
  EXPECT_EQ(hist->sum, 23);
  EXPECT_EQ(hist->counts, (std::vector<std::uint64_t>{1, 1}));
}

TEST(RegistryScope, PoolWorkersInheritThePoolsScope) {
  constexpr std::uint32_t kThreads = 4;
  obs::RegistryScope scope;
  const std::string global_before =
      obs::to_json(obs::MetricsRegistry::global().snapshot()).dump();
  std::atomic<std::uint32_t> entered{0};
  std::atomic<std::uint32_t> in_scope{0};
  {
    exec::ThreadPool pool(kThreads);
    // kThreads tasks that each wait for all the others: every thread of the
    // pool, workers included, runs exactly one of them.
    pool.run(kThreads, [&](std::uint64_t) {
      entered.fetch_add(1);
      while (entered.load() < kThreads) std::this_thread::yield();
      if (&obs::MetricsRegistry::current() == &scope.registry()) {
        in_scope.fetch_add(1);
      }
      obs::MetricsRegistry::current().counter("test/task_writes").add(1);
    });
  }
  EXPECT_EQ(in_scope.load(), kThreads);
  const auto snap = scope.registry().snapshot();
  ASSERT_NE(snap.find("test/task_writes"), nullptr);
  EXPECT_EQ(snap.find("test/task_writes")->value, kThreads);
  // The pool's own host counters bind to the scope too, and nothing
  // reaches global() while the scope is open.
  ASSERT_NE(snap.find("exec/pool_tasks"), nullptr);
  EXPECT_EQ(snap.find("exec/pool_tasks")->value, kThreads);
  EXPECT_EQ(snap.find("exec/steals")->value, kThreads - 1);
  EXPECT_EQ(obs::to_json(obs::MetricsRegistry::global().snapshot()).dump(),
            global_before);
}

TEST(Registry, SectionsSerializeSeparatelyAndDropZeros) {
  obs::MetricsRegistry reg;
  reg.counter("mpc/rounds", obs::MetricSection::kModel).add(3);
  reg.counter("recovery/retries", obs::MetricSection::kRecovery).add(1);
  reg.gauge("host/wall_ns", obs::MetricSection::kHost).set(9);
  reg.counter("mpc/idle", obs::MetricSection::kModel);  // stays zero
  reg.histogram("mpc/empty_hist", {2}, obs::MetricSection::kModel);

  const auto snap = reg.snapshot();
  const auto model =
      obs::to_json_section(snap, obs::MetricSection::kModel).dump();
  EXPECT_NE(model.find("\"mpc/rounds\":3"), std::string::npos);
  EXPECT_EQ(model.find("recovery/retries"), std::string::npos);
  EXPECT_EQ(model.find("host/wall_ns"), std::string::npos);
  EXPECT_NE(model.find("mpc/idle"), std::string::npos);  // include_zero=true

  const auto lean =
      obs::to_json_section(snap, obs::MetricSection::kModel, false).dump();
  EXPECT_EQ(lean.find("mpc/idle"), std::string::npos);
  EXPECT_EQ(lean.find("mpc/empty_hist"), std::string::npos);
  EXPECT_NE(lean.find("\"mpc/rounds\":3"), std::string::npos);

  const auto grouped = obs::to_json(snap).dump();
  EXPECT_NE(grouped.find("\"model\""), std::string::npos);
  EXPECT_NE(grouped.find("\"recovery\""), std::string::npos);
  EXPECT_NE(grouped.find("\"host\""), std::string::npos);
}

// --- Label attribution end-to-end: per-label charges must account for the
// global totals exactly, and stay byte-stable across thread counts and
// fault plans (labels are charged by the replayed pipeline, not the retry
// engine). ---

void expect_labels_cover_totals(const mpc::Metrics& m, const char* what) {
  EXPECT_FALSE(m.by_label().empty()) << what;
  std::uint64_t rounds = 0, communication = 0, peak = 0;
  for (const auto& [label, cost] : m.by_label()) {
    rounds += cost.rounds;
    communication += cost.communication;
    peak = std::max(peak, cost.peak_load);
  }
  EXPECT_EQ(communication, m.total_communication()) << what;
  EXPECT_EQ(rounds, m.rounds()) << what;
  EXPECT_EQ(peak, m.peak_machine_load()) << what;
}

TEST(Metrics, LabelsCoverTotalsAcrossThreadsAndFaults) {
  const auto g = graph::gnm(300, 2400, 21);
  mpc::FaultPlan crashes;
  crashes.add({mpc::FaultKind::kCrash, /*round=*/2, /*machine=*/0});
  crashes.add({mpc::FaultKind::kCrash, /*round=*/6, /*machine=*/1});

  std::string reference;
  for (const std::uint32_t threads : {1u, 2u, 0u}) {
    for (const bool faulty : {false, true}) {
      SolveOptions options;
      options.threads = threads;
      if (faulty) options.faults = crashes;
      const auto solution = Solver(options).mis(g);
      const auto what = std::string("threads=") + std::to_string(threads) +
                        " faults=" + (faulty ? "crashes" : "none");
      expect_labels_cover_totals(solution.report.metrics, what.c_str());
      // The label breakdown itself is part of the golden report surface.
      Json labels = Json::object();
      for (const auto& [label, cost] : solution.report.metrics.by_label()) {
        labels.set(label, cost.communication);
        labels.set("rounds/" + label, cost.rounds);
      }
      if (reference.empty()) {
        reference = labels.dump();
      } else {
        EXPECT_EQ(labels.dump(), reference) << what;
      }
    }
  }
}

}  // namespace
}  // namespace dmpc
