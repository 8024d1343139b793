#include "mpc/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "support/math.hpp"

namespace dmpc::mpc {

ClusterConfig ClusterConfig::for_input(std::uint64_t n, double eps,
                                       std::uint64_t total_words,
                                       std::uint64_t min_space) {
  DMPC_CHECK(eps > 0.0 && eps <= 1.0);
  ClusterConfig config;
  config.machine_space = std::max(min_space, ipow_real(std::max<std::uint64_t>(n, 2), eps));
  config.num_machines =
      ceil_div(std::max<std::uint64_t>(total_words, 1), config.machine_space) + 1;
  return config;
}

ClusterConfig apply_overrides(ClusterConfig base,
                              const ClusterOverrides& overrides) {
  if (overrides.machine_space != 0) {
    base.machine_space = overrides.machine_space;
  }
  if (overrides.num_machines != 0) {
    base.num_machines = overrides.num_machines;
  }
  if (!overrides.enforce_space) base.enforce_space = false;
  return base;
}

Cluster::Cluster(ClusterConfig base, const ClusterSetup& setup)
    : config_(apply_overrides(base, setup.overrides)),
      metrics_(config_.machine_space),
      trace_(setup.trace),
      profiler_(setup.profiler),
      events_(setup.events),
      executor_(exec::Executor::with_threads(setup.threads)) {
  DMPC_CHECK_MSG(config_.machine_space >= 2, "machine space must be >= 2");
  if (config_.num_machines == 0) config_.num_machines = 1;
  if (trace_ != nullptr) trace_->attach_metrics(&metrics_);
  if (setup.faults.empty()) return;
  const std::string problem = setup.faults.check();
  DMPC_CHECK_MSG(problem.empty(), "inadmissible fault plan: " << problem);
  const RecoveryOptions& recovery = setup.recovery;
  DMPC_CHECK_MSG(recovery.backoff_rounds >= 1, "backoff_rounds must be >= 1");
  DMPC_CHECK_MSG(recovery.max_retries <= RecoveryOptions::kMaxRetries,
                 "max_retries " << recovery.max_retries << " exceeds cap "
                                << RecoveryOptions::kMaxRetries);
  fault_plan_ = setup.faults;
  recovery_ = recovery;
}

Cluster::~Cluster() { close_open_phase(); }

void Cluster::close_open_phase() {
  if (!phase_open_) return;
  phase_open_ = false;
  if (!obs::events_enabled(events_)) return;
  obs::ProgressEvent e;
  e.type = obs::EventType::kPhaseFinished;
  e.label = open_phase_;
  e.round = metrics_.rounds();
  e.comm_words = metrics_.total_communication();
  events_->emit(std::move(e));
}

void Cluster::emit_round_completed(const std::string& label,
                                   std::uint64_t rounds) {
  if (!obs::events_enabled(events_)) return;
  obs::ProgressEvent e;
  e.type = obs::EventType::kRoundCompleted;
  e.label = label;
  e.round = metrics_.rounds();
  e.rounds = rounds;
  e.comm_words = metrics_.total_communication();
  if (profiler_ != nullptr) {
    if (const obs::ProfileRecord* rec = profiler_->last_record()) {
      e.load_max = rec->load_max;
      e.gini_ppm = rec->gini_ppm;
    }
  }
  events_->emit(std::move(e));
}

void Cluster::emit_recovery_event(obs::EventType type, const std::string& label,
                                  std::uint64_t round, std::int64_t value,
                                  const std::string& detail) {
  if (!obs::events_enabled(events_)) return;
  obs::ProgressEvent e;
  e.type = type;
  e.label = label;
  e.round = round;
  e.comm_words = metrics_.total_communication();
  e.value = value;
  e.detail = detail;
  events_->emit(std::move(e));
}

std::uint64_t Cluster::tree_depth(std::uint64_t items) const {
  if (items <= 1) return 1;
  const double depth = std::log(static_cast<double>(items)) /
                       std::log(static_cast<double>(config_.machine_space));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(depth)));
}

namespace {

std::string machine_tag(std::uint64_t machine) {
  return machine == Cluster::kAnyMachine ? std::string("any")
                                         : std::to_string(machine);
}

}  // namespace

void Cluster::check_load(std::uint64_t words, const std::string& what,
                         const std::string& label, std::uint64_t machine) {
  metrics_.observe_load(words, label);
  if (profiler_ != nullptr) profiler_->observe_load(words, machine);
  if (config_.enforce_space) {
    DMPC_CHECK_MSG(words <= config_.machine_space,
                   what << ": machine load exceeds S [machine="
                        << machine_tag(machine) << " measured=" << words
                        << " limit=" << config_.machine_space << "]");
  }
}

void Cluster::load(std::vector<std::vector<Word>> inputs) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    check_load(inputs[i].size(), "load: machine " + std::to_string(i), "", i);
  }
  locals_ = std::move(inputs);
}

const std::vector<Word>& Cluster::local(std::uint64_t machine) const {
  DMPC_CHECK(machine < locals_.size());
  return locals_[machine];
}

void Cluster::route_and_deliver(std::vector<std::vector<Message>>& outboxes,
                                const std::string& label) {
  const std::uint64_t m = locals_.size();
  // Route with capacity accounting.
  std::uint64_t words = 0;
  std::vector<std::uint64_t> recv_volume(m, 0);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t sent = 0;
    for (const Message& msg : outboxes[i]) {
      DMPC_CHECK_MSG(msg.to < m, "message to nonexistent machine");
      sent += msg.payload.size();
      recv_volume[msg.to] += msg.payload.size();
    }
    check_load(sent, label + ": send volume of machine " + std::to_string(i),
               label, i);
    words += sent;
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    check_load(recv_volume[i],
               label + ": receive volume of machine " + std::to_string(i),
               label, i);
  }
  // Deliver: received words are appended to local storage in sender order.
  for (std::uint64_t i = 0; i < m; ++i) {
    for (Message& msg : outboxes[i]) {
      auto& dst = locals_[msg.to];
      dst.insert(dst.end(), msg.payload.begin(), msg.payload.end());
    }
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    check_load(locals_[i].size(),
               label + ": local storage of machine " + std::to_string(i),
               label, i);
  }
  commit(label, 1, words);
}

void Cluster::commit(const std::string& label, std::uint64_t rounds,
                     std::uint64_t words) {
  metrics_.charge(label, rounds, words);
  if (profiler_ != nullptr) {
    profiler_->commit(label, metrics_.rounds(), rounds,
                      metrics_.total_communication());
  }
  emit_round_completed(label, rounds);
}

void Cluster::note_checkpoint(const std::string& label, std::uint64_t words) {
  recovery_stats_.checkpoints += 1;
  recovery_stats_.checkpoint_words += words;
  if (recovery_.trace_recovery && obs::enabled(trace_)) {
    trace_->instant("recovery/checkpoint",
                    {obs::arg("label", label), obs::arg("words", words),
                     obs::arg("round", metrics_.rounds())});
  }
  emit_recovery_event(obs::EventType::kCheckpointTaken, label,
                      metrics_.rounds(), static_cast<std::int64_t>(words), "");
}

void Cluster::register_retry(const std::string& label, std::uint64_t round,
                             std::uint64_t cost, std::uint32_t attempt) {
  const std::uint32_t spent = attempt + 1;  // attempts consumed so far
  // Emitted before the budget checks so a terminal FaultError still leaves
  // the failing attempt visible in the event stream.
  emit_recovery_event(obs::EventType::kRecoveryAttempt, label, round,
                      static_cast<std::int64_t>(spent), "");
  if (recovery_.checkpoint == CheckpointMode::kOff) {
    throw FaultError(label, round, spent,
                     "checkpointing is off (checkpoint=off), no snapshot to "
                     "restore");
  }
  if (spent > recovery_.max_retries) {
    throw FaultError(label, round, spent,
                     "retry budget exhausted (max_retries=" +
                         std::to_string(recovery_.max_retries) + ")");
  }
  recovery_stats_.retries += 1;
  recovery_stats_.retries_by_label[label] += 1;
  // kPhase restores the last phase mark, so the replay re-executes every
  // round since that mark; kRound restores the snapshot taken at the top of
  // this superstep. Retry k of a c-round superstep consumes
  // backoff_rounds * (c + rollback) * 2^{k-1} rounds of the recovery budget.
  std::uint64_t rollback = 0;
  if (recovery_.checkpoint == CheckpointMode::kPhase && round > phase_round_) {
    rollback = round - phase_round_;
  }
  const std::uint64_t backoff = recovery_.backoff_rounds
                                << std::min<std::uint32_t>(attempt, 32);
  recovery_stats_.replayed_rounds += (cost + rollback) * backoff;
  if (recovery_.trace_recovery && obs::enabled(trace_)) {
    trace_->instant("recovery/retry",
                    {obs::arg("label", label), obs::arg("round", round),
                     obs::arg("attempt", static_cast<std::uint64_t>(spent))});
  }
}

obs::Span Cluster::mark_phase(const std::string& label,
                              std::uint64_t state_words) {
  // Phase events are model-section: they must flow on every plan, so they
  // are emitted before the empty-plan early return below. The round/comm
  // fields are fault-free by the Metrics contract.
  close_open_phase();
  if (obs::events_enabled(events_)) {
    obs::ProgressEvent e;
    e.type = obs::EventType::kPhaseStarted;
    e.label = label;
    e.round = metrics_.rounds();
    e.comm_words = metrics_.total_communication();
    e.value = static_cast<std::int64_t>(state_words);
    events_->emit(std::move(e));
  }
  open_phase_ = label;
  phase_open_ = true;
  if (fault_plan_.empty()) return obs::Span(trace_, label);
  phase_round_ = metrics_.rounds();
  if (recovery_.checkpoint == CheckpointMode::kPhase) {
    note_checkpoint(label, state_words);
  }
  return obs::Span(trace_, label);
}

void Cluster::charge(const std::string& label, std::uint64_t rounds,
                     std::uint64_t words, std::uint64_t state_words,
                     const std::function<void()>& body) {
  recover(label, rounds, state_words, body);
  commit(label, rounds, words);
}

void Cluster::recover(const std::string& label, std::uint64_t rounds,
                      std::uint64_t state_words,
                      const std::function<void()>& body) {
  if (fault_plan_.empty()) {
    if (body) body();
    return;
  }
  const std::uint64_t round = metrics_.rounds();
  const std::uint64_t cost = std::max<std::uint64_t>(rounds, 1);
  // Start the window where the previous one ended, so windows tile the
  // round axis and every in-range event fires exactly once.
  const std::uint64_t begin = std::min(fault_covered_round_, round);
  const std::uint64_t end = round + cost;
  fault_covered_round_ = end;
  if (recovery_.checkpoint == CheckpointMode::kRound) {
    note_checkpoint(label, state_words);
  }
  std::uint32_t attempt = 0;
  while (true) {
    bool failed = false;
    for (const FaultEvent* event : fault_plan_.active(begin, end, attempt)) {
      recovery_stats_.faults_injected += 1;
      switch (event->kind) {
        case FaultKind::kCrash:
          recovery_stats_.crashes += 1;
          failed = true;
          break;
        case FaultKind::kDrop:
          recovery_stats_.messages_dropped += 1;
          failed = true;
          break;
        case FaultKind::kDuplicate:
          // The aggregation-tree router tags fragments with (round, source),
          // so a redelivery is recognized and discarded centrally.
          recovery_stats_.duplicates_suppressed += 1;
          break;
        case FaultKind::kStraggler:
          // Lemma-4 primitives synchronize at every tree level; a straggler
          // stretches the barrier but changes no data.
          recovery_stats_.straggler_rounds += event->delay;
          break;
      }
    }
    // The body is deterministic and overwrites its outputs, so re-running it
    // after a failed attempt models the lost work while producing the exact
    // fault-free result.
    if (body) body();
    if (!failed) {
      if (attempt > 0) {
        emit_recovery_event(obs::EventType::kRecovered, label, round,
                            static_cast<std::int64_t>(attempt), "");
      }
      return;
    }
    register_retry(label, round, cost, attempt);
    attempt += 1;
  }
}

void Cluster::step(const std::function<void(MachineContext&)>& compute,
                   const std::string& label) {
  obs::Span span(trace_, label);
  const std::uint64_t m = locals_.size();
  if (fault_plan_.empty()) {
    std::vector<std::vector<Message>> outboxes(m);
    // Machines are independent within a round: each compute touches only its
    // own locals_[i] / outboxes[i], so host-parallel execution is safe and
    // (machine i's work being fixed) deterministic.
    executor_.for_each(0, m, [&](std::uint64_t i) {
      MachineContext ctx(i, &locals_[i], &outboxes[i]);
      compute(ctx);
    });
    route_and_deliver(outboxes, label);
    return;
  }

  // Faulty path: snapshot, attempt, and replay until the superstep commits.
  // All routing/metrics accounting happens only on the committing attempt,
  // so Metrics (rounds, peak load, communication) stays byte-identical to
  // the fault-free run; every fault and replay lands in RecoveryStats.
  const std::uint64_t round = metrics_.rounds();
  const std::uint64_t begin = std::min(fault_covered_round_, round);
  const std::uint64_t end = round + 1;
  fault_covered_round_ = end;
  std::vector<std::vector<Word>> checkpoint;
  if (recovery_.checkpoint != CheckpointMode::kOff) {
    // The snapshot itself is needed to restore state whichever granularity
    // is charged; under kPhase its *cost* was accounted at the last
    // mark_phase, so only kRound records it here.
    checkpoint = locals_;
    if (recovery_.checkpoint == CheckpointMode::kRound) {
      std::uint64_t words = 0;
      for (const auto& local : checkpoint) words += local.size();
      note_checkpoint(label, words);
    }
  }
  std::uint32_t attempt = 0;
  while (true) {
    const auto active = fault_plan_.active(begin, end, attempt);
    bool failed = false;
    std::vector<char> crashed(m, 0);
    for (const FaultEvent* event : active) {
      if (event->kind == FaultKind::kCrash && event->machine < m) {
        recovery_stats_.faults_injected += 1;
        recovery_stats_.crashes += 1;
        crashed[event->machine] = 1;
        failed = true;
      } else if (event->kind == FaultKind::kStraggler && event->machine < m) {
        recovery_stats_.faults_injected += 1;
        recovery_stats_.straggler_rounds += event->delay;
      }
    }
    std::vector<std::vector<Message>> outboxes(m);
    executor_.for_each(0, m, [&](std::uint64_t i) {
      if (crashed[i]) return;  // lost worker: compute + sends discarded
      MachineContext ctx(i, &locals_[i], &outboxes[i]);
      compute(ctx);
    });
    for (const FaultEvent* event : active) {
      if (event->machine >= m) continue;
      if (event->kind == FaultKind::kDrop &&
          event->message < outboxes[event->machine].size()) {
        recovery_stats_.faults_injected += 1;
        recovery_stats_.messages_dropped += 1;
        failed = true;
      } else if (event->kind == FaultKind::kDuplicate &&
                 event->message < outboxes[event->machine].size()) {
        // The router deduplicates the second copy on (sender, ordinal), so
        // delivery is unchanged; only the ledger notices.
        recovery_stats_.faults_injected += 1;
        recovery_stats_.duplicates_suppressed += 1;
      }
    }
    if (!failed) {
      route_and_deliver(outboxes, label);
      if (attempt > 0) {
        emit_recovery_event(obs::EventType::kRecovered, label, round,
                            static_cast<std::int64_t>(attempt), "");
      }
      return;
    }
    register_retry(label, round, 1, attempt);
    locals_ = checkpoint;
    attempt += 1;
  }
}

}  // namespace dmpc::mpc
