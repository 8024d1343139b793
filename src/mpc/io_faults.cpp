#include "mpc/io_faults.hpp"

#include <sstream>

#include "mpc/faults.hpp"
#include "obs/metrics_registry.hpp"
#include "support/parse_error.hpp"

namespace dmpc::mpc {

const char* io_fault_kind_name(IoFaultKind kind) {
  switch (kind) {
    case IoFaultKind::kShortRead:
      return "short_read";
    case IoFaultKind::kEio:
      return "eio";
    case IoFaultKind::kCorrupt:
      return "corrupt";
    case IoFaultKind::kMapFail:
      return "map_fail";
    case IoFaultKind::kSlow:
      return "slow";
  }
  return "unknown";
}

std::vector<const IoFaultEvent*> IoFaultPlan::active(
    std::uint64_t shard, std::uint64_t access, std::uint32_t attempt) const {
  std::vector<const IoFaultEvent*> out;
  for (const IoFaultEvent& event : events_) {
    if (event.shard == shard && event.access == access &&
        attempt < event.attempts) {
      out.push_back(&event);
    }
  }
  return out;
}

std::string IoFaultPlan::check() const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const IoFaultEvent& event = events_[i];
    if (event.attempts == 0) {
      return "io fault event #" + std::to_string(i) +
             " has attempts=0 (an event must fire on at least one attempt)";
    }
    if (event.kind == IoFaultKind::kSlow && event.delay == 0) {
      return "io fault event #" + std::to_string(i) +
             " is a slow fault with delay=0 (must delay by >= 1 unit)";
    }
  }
  return "";
}

namespace {

bool parse_io_kind(const std::string& token, IoFaultKind* kind) {
  if (token == "short_read") {
    *kind = IoFaultKind::kShortRead;
  } else if (token == "eio") {
    *kind = IoFaultKind::kEio;
  } else if (token == "corrupt") {
    *kind = IoFaultKind::kCorrupt;
  } else if (token == "map_fail") {
    *kind = IoFaultKind::kMapFail;
  } else if (token == "slow") {
    *kind = IoFaultKind::kSlow;
  } else {
    return false;
  }
  return true;
}

}  // namespace

IoFaultPlan IoFaultPlan::parse(const std::string& text) {
  IoFaultPlan plan;
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
    IoFaultEvent event;
    if (!parse_io_kind(toks[0].text, &event.kind)) {
      throw ParseError(ParseErrorCode::kBadToken,
                       "unknown io fault kind "
                       "(expected short_read|eio|corrupt|map_fail|slow)",
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
      if (key == "shard" && value_tok.text == "manifest") {
        event.shard = kManifestShard;
        continue;
      }
      const std::uint64_t value =
          parse::require_u64(value_tok.text, value_tok.column, line_no);
      if (key == "shard") {
        event.shard = value;
      } else if (key == "access") {
        event.access = value;
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
                         "(expected shard|access|delay|attempts)",
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

IoFaultPlan IoFaultPlan::parse(const std::string& text, std::string* error) {
  try {
    const IoFaultPlan plan = parse(text);
    if (error != nullptr) error->clear();
    return plan;
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return IoFaultPlan{};
  }
}

std::string IoFaultPlan::to_string() const {
  std::ostringstream out;
  for (const IoFaultEvent& event : events_) {
    out << io_fault_kind_name(event.kind);
    if (event.shard == kManifestShard) {
      out << " shard=manifest";
    } else {
      out << " shard=" << event.shard;
    }
    out << " access=" << event.access;
    if (event.kind == IoFaultKind::kSlow) out << " delay=" << event.delay;
    if (event.attempts != 1) out << " attempts=" << event.attempts;
    out << "\n";
  }
  return out.str();
}

void IoRecoveryStats::merge(const IoRecoveryStats& other) {
  io_faults_injected += other.io_faults_injected;
  retries += other.retries;
  backoff_units += other.backoff_units;
  checksum_failures += other.checksum_failures;
  quarantined_shards += other.quarantined_shards;
  degraded += other.degraded;
  shards_verified += other.shards_verified;
}

void IoRecoveryStats::export_to(obs::MetricsRegistry& registry) const {
  const auto section = obs::MetricSection::kRecovery;
  registry.counter("storage/io_faults_injected", section)
      .add(io_faults_injected);
  registry.counter("storage/retries", section).add(retries);
  registry.counter("storage/backoff_units", section).add(backoff_units);
  registry.counter("storage/checksum_failures", section)
      .add(checksum_failures);
  registry.counter("storage/quarantined_shards", section)
      .add(quarantined_shards);
  registry.counter("storage/degraded", section).add(degraded);
  registry.counter("storage/shards_verified", section).add(shards_verified);
}

}  // namespace dmpc::mpc
