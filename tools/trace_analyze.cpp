// trace_analyze — offline analyzer for dmpc traces and profile blocks.
//
//   ./trace_analyze [--top=10] [--folded=out.folded] trace.jsonl
//   ./trace_analyze --report=metrics.json [--gate=thresholds.json]
//   ./trace_analyze --gate=thresholds.json --report=BENCH_E2.json
//
// With a trace file (JSONL or Chrome trace-event JSON, auto-detected) it
// reconstructs the span tree and prints the round-DAG critical path and the
// top-k hot spans per phase (the name prefix up to the first '/'), and can
// write folded flamegraph stacks (--folded) for FlameGraph-style renderers.
//
// With --report it reads a report JSON (its optional `profile` block)
// or a bench artifact (BENCH_*.json whose points embed `profile`) and prints
// a skew report. A report without any profile block — or with an empty
// one — is a typed one-line `no_profile:` / `empty_profile:` error (exit 2),
// never a crash or a silently empty report. --gate evaluates every profile block
// against a threshold document (see obs/trace_analysis.hpp) and exits 1
// naming the offending labels and round ranges — the CI bench-smoke job
// runs this on uploaded artifacts.
//
// Exit codes: 0 analysis ok / gate passed; 1 gate violations; 2 usage,
// unreadable input, missing/empty profile, or parse errors.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/parse_error.hpp"

namespace {

using dmpc::Json;
using dmpc::obs::CriticalPathEntry;
using dmpc::obs::HotSpan;
using dmpc::obs::TraceAnalysis;

std::string phase_of(const std::string& name) {
  const auto slash = name.find('/');
  return slash == std::string::npos ? name : name.substr(0, slash);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw dmpc::ParseError(dmpc::ParseErrorCode::kIoError,
                           "cannot open trace '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void print_one_path(const TraceAnalysis& analysis, dmpc::obs::PathWeight weight,
                    const char* kind, std::uint64_t total) {
  const auto path = dmpc::obs::critical_path(analysis, weight);
  std::printf("critical path (%s-weighted, %llu total):\n", kind,
              static_cast<unsigned long long>(total));
  for (const CriticalPathEntry& entry : path) {
    const auto& span = analysis.spans[entry.span];
    std::printf("  %*s%-40s inclusive=%llu self=%llu\n",
                static_cast<int>(2 * span.depth), "", span.name.c_str(),
                static_cast<unsigned long long>(entry.inclusive),
                static_cast<unsigned long long>(entry.self));
  }
}

void print_critical_path(const TraceAnalysis& analysis) {
  const bool use_rounds = analysis.total_rounds > 0;
  print_one_path(analysis,
                 use_rounds ? dmpc::obs::PathWeight::kRounds
                            : dmpc::obs::PathWeight::kWall,
                 use_rounds ? "rounds" : "wall_ns",
                 use_rounds ? analysis.total_rounds : analysis.total_wall_ns);
  // The model path (rounds) and host path (wall) usually disagree: spans
  // that charge few rounds can dominate wall time (the derand CE sweep).
  // Print both when the trace carries both weights.
  if (use_rounds && analysis.has_wall) {
    print_one_path(analysis, dmpc::obs::PathWeight::kWall, "wall_ns",
                   analysis.total_wall_ns);
  }
}

void print_hot_spans(const TraceAnalysis& analysis, std::uint64_t top) {
  const auto hot = dmpc::obs::hot_spans(analysis);
  // Group by phase, preserving the global hotness order within each group.
  std::vector<std::string> phases;
  for (const HotSpan& span : hot) {
    const std::string phase = phase_of(span.name);
    bool seen = false;
    for (const std::string& p : phases) seen = seen || p == phase;
    if (!seen) phases.push_back(phase);
  }
  for (const std::string& phase : phases) {
    std::printf("hot spans [%s]:\n", phase.c_str());
    std::uint64_t printed = 0;
    for (const HotSpan& span : hot) {
      if (phase_of(span.name) != phase) continue;
      if (printed++ >= top) break;
      std::printf("  %-44s x%llu self_rounds=%llu self_wall_ns=%llu comm=%llu\n",
                  span.name.c_str(),
                  static_cast<unsigned long long>(span.count),
                  static_cast<unsigned long long>(span.self_rounds),
                  static_cast<unsigned long long>(span.self_wall_ns),
                  static_cast<unsigned long long>(span.communication));
    }
  }
}

/// Lenient field access for skew printing: a missing key prints as 0 instead
/// of tripping the at() invariant check — the typed empty_profile error has
/// already rejected blocks with no content at all.
std::int64_t field_or_zero(const Json& object, const char* key) {
  const Json* value = object.find(key);
  return value != nullptr ? value->as_int64() : 0;
}

void print_skew_report(const std::string& context, const Json& profile) {
  std::printf("profile [%s]: records=%llu dropped=%llu load_max=%llu "
              "gini_max_ppm=%llu\n",
              context.c_str(),
              static_cast<unsigned long long>(
                  field_or_zero(profile, "records_committed")),
              static_cast<unsigned long long>(
                  field_or_zero(profile, "records_dropped")),
              static_cast<unsigned long long>(
                  field_or_zero(profile, "load_max")),
              static_cast<unsigned long long>(
                  field_or_zero(profile, "gini_max_ppm")));
  if (const Json* labels = profile.find("by_label"); labels != nullptr) {
    for (const auto& [label, s] : labels->fields()) {
      std::printf("  %-44s records=%lld rounds=%lld load_max=%lld "
                  "gini_max_ppm=%lld\n",
                  label.c_str(),
                  static_cast<long long>(field_or_zero(s, "records")),
                  static_cast<long long>(field_or_zero(s, "rounds")),
                  static_cast<long long>(field_or_zero(s, "load_max")),
                  static_cast<long long>(field_or_zero(s, "gini_max_ppm")));
    }
  }
}

/// A report JSON carries one top-level `profile`; a bench artifact embeds
/// one per point. Returns (context, profile) pairs.
std::vector<std::pair<std::string, const Json*>> find_profiles(
    const Json& doc) {
  std::vector<std::pair<std::string, const Json*>> out;
  if (const Json* profile = doc.find("profile"); profile != nullptr) {
    out.emplace_back("report", profile);
    return out;
  }
  const Json* points = doc.find("points");
  if (points == nullptr) return out;
  const std::string bench =
      doc.find("bench") != nullptr ? doc.at("bench").as_string() : "bench";
  for (const Json& point : points->items()) {
    const Json* profile = point.find("profile");
    if (profile == nullptr) continue;
    const Json* axis = point.find("axis_value");
    std::string context = bench;
    if (axis != nullptr) {
      context += "." + (axis->is_string() ? axis->as_string()
                                          : std::to_string(axis->as_int64()));
    }
    out.emplace_back(std::move(context), profile);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const dmpc::ArgParser args(argc, argv);
  const std::uint64_t top =
      static_cast<std::uint64_t>(args.get_int("top", 10));
  const std::string report_path = args.get("report", "");
  const std::string gate_path = args.get("gate", "");
  const std::string folded_path = args.get("folded", "");
  const std::vector<std::string>& traces = args.positional();
  if (traces.empty() && report_path.empty()) {
    std::fprintf(stderr,
                 "usage: trace_analyze [--top=N] [--folded=out.folded] "
                 "[--report=report.json] [--gate=thresholds.json] "
                 "[trace.jsonl|trace.json]\n");
    return 2;
  }

  try {
    for (const std::string& path : traces) {
      std::printf("== %s ==\n", path.c_str());
      const TraceAnalysis analysis =
          dmpc::obs::analyze_trace_text(read_file(path));
      std::printf("spans=%zu roots=%zu total_rounds=%llu\n",
                  analysis.spans.size(), analysis.roots.size(),
                  static_cast<unsigned long long>(analysis.total_rounds));
      print_critical_path(analysis);
      print_hot_spans(analysis, top);
      if (!folded_path.empty()) {
        std::ofstream out(folded_path, std::ios::binary);
        if (!out.good()) {
          std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                       folded_path.c_str());
          return 2;
        }
        out << dmpc::obs::folded_stacks(analysis);
        std::printf("folded stacks written to %s\n", folded_path.c_str());
      }
    }

    int gate_failures = 0;
    if (!report_path.empty()) {
      const Json doc = Json::parse_file(report_path);
      const auto profiles = find_profiles(doc);
      if (profiles.empty()) {
        std::fprintf(stderr,
                     "error: no_profile: %s carries no profile block "
                     "(run the solve with --profile)\n",
                     report_path.c_str());
        return 2;
      }
      Json thresholds = Json::object();
      if (!gate_path.empty()) thresholds = Json::parse_file(gate_path);
      for (const auto& [context, profile] : profiles) {
        if (!profile->is_object() || profile->fields().empty()) {
          std::fprintf(stderr,
                       "error: empty_profile: %s [%s] profile block has no "
                       "fields\n",
                       report_path.c_str(), context.c_str());
          return 2;
        }
        print_skew_report(context, *profile);
        if (gate_path.empty()) continue;
        const auto violations =
            dmpc::obs::check_profile_gate(*profile, thresholds, context);
        for (const auto& v : violations) {
          std::fprintf(stderr, "GATE %s: %s\n", v.series.c_str(),
                       v.detail.c_str());
        }
        gate_failures += static_cast<int>(violations.size());
      }
    }
    if (gate_failures > 0) {
      std::fprintf(stderr, "trace_analyze: %d gate violations\n",
                   gate_failures);
      return 1;
    }
  } catch (const dmpc::ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
