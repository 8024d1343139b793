#include "mpc/faults.hpp"

#include <sstream>

#include "obs/metrics_registry.hpp"
#include "support/parse_error.hpp"

namespace dmpc::mpc {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kStraggler:
      return "straggler";
  }
  return "unknown";
}

const char* checkpoint_mode_name(CheckpointMode mode) {
  switch (mode) {
    case CheckpointMode::kOff:
      return "off";
    case CheckpointMode::kRound:
      return "round";
    case CheckpointMode::kPhase:
      return "phase";
  }
  return "unknown";
}

std::vector<const FaultEvent*> FaultPlan::active(std::uint64_t begin,
                                                 std::uint64_t end,
                                                 std::uint32_t attempt) const {
  std::vector<const FaultEvent*> out;
  for (const FaultEvent& event : events_) {
    if (event.round >= begin && event.round < end && attempt < event.attempts) {
      out.push_back(&event);
    }
  }
  return out;
}

std::string FaultPlan::check() const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& event = events_[i];
    if (event.attempts == 0) {
      return "fault event #" + std::to_string(i) +
             " has attempts=0 (an event must fire on at least one attempt)";
    }
    if (event.kind == FaultKind::kStraggler && event.delay == 0) {
      return "fault event #" + std::to_string(i) +
             " is a straggler with delay=0 (must delay by >= 1 round)";
    }
  }
  return "";
}

namespace {

bool parse_kind(const std::string& token, FaultKind* kind) {
  if (token == "crash") {
    *kind = FaultKind::kCrash;
  } else if (token == "drop") {
    *kind = FaultKind::kDrop;
  } else if (token == "duplicate") {
    *kind = FaultKind::kDuplicate;
  } else if (token == "straggler") {
    *kind = FaultKind::kStraggler;
  } else {
    return false;
  }
  return true;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.size() > kMaxLineBytes) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "line exceeds " + std::to_string(kMaxLineBytes) +
                           " byte limit",
                       line_no);
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const std::vector<parse::Token> toks = parse::tokenize(line);
    if (toks.empty()) continue;  // blank / comment-only line
    FaultEvent event;
    if (!parse_kind(toks[0].text, &event.kind)) {
      throw ParseError(ParseErrorCode::kBadToken,
                       "unknown fault kind "
                       "(expected crash|drop|duplicate|straggler)",
                       line_no, toks[0].column, parse::clip(toks[0].text));
    }
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const parse::Token& tok = toks[i];
      const auto eq = tok.text.find('=');
      if (eq == std::string::npos) {
        throw ParseError(ParseErrorCode::kMalformedLine,
                         "expected key=value", line_no, tok.column,
                         parse::clip(tok.text));
      }
      const std::string key = tok.text.substr(0, eq);
      // Locate the value token precisely: its column is just past the '='.
      const parse::Token value_tok{tok.text.substr(eq + 1),
                                   tok.column + eq + 1};
      const std::uint64_t value =
          parse::require_u64(value_tok.text, value_tok.column, line_no);
      if (key == "round") {
        event.round = value;
      } else if (key == "machine") {
        event.machine = value;
      } else if (key == "message") {
        event.message = value;
      } else if (key == "delay") {
        event.delay = value;
      } else if (key == "attempts") {
        if (value > RecoveryOptions::kMaxRetries + 1ull) {
          throw ParseError(ParseErrorCode::kOutOfRange,
                           "attempts exceeds retry cap of " +
                               std::to_string(RecoveryOptions::kMaxRetries),
                           line_no, value_tok.column,
                           parse::clip(value_tok.text));
        }
        event.attempts = static_cast<std::uint32_t>(value);
      } else {
        throw ParseError(ParseErrorCode::kBadToken,
                         "unknown key "
                         "(expected round|machine|message|delay|attempts)",
                         line_no, tok.column, parse::clip(key));
      }
    }
    if (plan.events().size() >= kMaxEvents) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "plan exceeds " + std::to_string(kMaxEvents) +
                           " event limit",
                       line_no);
    }
    plan.add(event);
  }
  if (const std::string problem = plan.check(); !problem.empty()) {
    throw ParseError(ParseErrorCode::kOutOfRange, problem);
  }
  return plan;
}

FaultPlan FaultPlan::parse(const std::string& text, std::string* error) {
  try {
    const FaultPlan plan = parse(text);
    if (error != nullptr) error->clear();
    return plan;
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return FaultPlan{};
  }
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  for (const FaultEvent& event : events_) {
    out << fault_kind_name(event.kind) << " round=" << event.round
        << " machine=" << event.machine;
    if (event.kind == FaultKind::kDrop || event.kind == FaultKind::kDuplicate) {
      out << " message=" << event.message;
    }
    if (event.kind == FaultKind::kStraggler) out << " delay=" << event.delay;
    if (event.attempts != 1) out << " attempts=" << event.attempts;
    out << "\n";
  }
  return out.str();
}

void RecoveryStats::merge(const RecoveryStats& other) {
  faults_injected += other.faults_injected;
  crashes += other.crashes;
  messages_dropped += other.messages_dropped;
  duplicates_suppressed += other.duplicates_suppressed;
  straggler_rounds += other.straggler_rounds;
  retries += other.retries;
  replayed_rounds += other.replayed_rounds;
  checkpoints += other.checkpoints;
  checkpoint_words += other.checkpoint_words;
  for (const auto& [label, count] : other.retries_by_label) {
    retries_by_label[label] += count;
  }
  storage.merge(other.storage);
}

void RecoveryStats::export_to(obs::MetricsRegistry& registry) const {
  const auto section = obs::MetricSection::kRecovery;
  registry.counter("recovery/faults_injected", section).add(faults_injected);
  registry.counter("recovery/crashes", section).add(crashes);
  registry.counter("recovery/messages_dropped", section).add(messages_dropped);
  registry.counter("recovery/duplicates_suppressed", section)
      .add(duplicates_suppressed);
  registry.counter("recovery/straggler_rounds", section).add(straggler_rounds);
  registry.counter("recovery/retries", section).add(retries);
  registry.counter("recovery/replayed_rounds", section).add(replayed_rounds);
  registry.counter("recovery/checkpoints", section).add(checkpoints);
  registry.counter("recovery/checkpoint_words", section).add(checkpoint_words);
  for (const auto& [label, count] : retries_by_label) {
    registry.counter("recovery/retries", label, section).add(count);
  }
  storage.export_to(registry);
}

}  // namespace dmpc::mpc
