// Shared parsing of solver-related command-line options.
//
// One implementation serves the dmpc CLI, the examples, and the fuzzing
// harness (tools/fuzz/), so the exact surface fuzzed is the surface shipped:
// every flag value is parsed strictly — a malformed number, an unknown
// enum name, or an oversized value raises a typed recoverable error
// (ParseError for token-level defects, OptionsError with a StatusCode for
// unknown mode names), never a DMPC_CHECK abort.
#pragma once

#include <string>

#include "api/solve_types.hpp"
#include "api/status.hpp"
#include "obs/events.hpp"
#include "support/options.hpp"

namespace dmpc {

/// --algorithm=auto|sparse|lowdeg. Throws OptionsError(kInvalidAlgorithm).
Algorithm parse_algorithm(const std::string& name);

/// --certify=off|answer|full. Throws OptionsError(kInvalidCertifyMode).
verify::CertifyMode parse_certify_mode(const std::string& name);

/// --checkpoint=round|phase|off. Throws OptionsError(kInvalidRetryBudget).
mpc::CheckpointMode parse_checkpoint_mode(const std::string& name);

/// --storage=memory|mmap. Throws OptionsError(kInvalidStorage).
mpc::StorageBackend parse_storage_backend(const std::string& name);

/// --storage-verify=off|open|paranoid. Throws OptionsError(kInvalidStorage).
mpc::VerifyMode parse_verify_mode(const std::string& name);

/// --storage-fallback=none|memory. Throws OptionsError(kInvalidStorage).
mpc::FallbackMode parse_fallback_mode(const std::string& name);

/// SolveOptions parsed from flags, plus the side-channels the caller must
/// resolve itself (file loading stays out of this layer so the fuzz harness
/// can drive it hermetically).
struct CliSolveOptions {
  SolveOptions options;
  /// --fault-plan=<path>; empty = no plan. The caller loads the file and
  /// applies mpc::FaultPlan::parse(text) to options.faults.
  std::string fault_plan_path;
  /// --io-fault-plan=<path>; empty = no plan. The caller loads the file and
  /// applies mpc::IoFaultPlan::parse(text) to options.io_faults.
  std::string io_fault_plan_path;
  /// --metrics-out=<path>; empty = no metrics dump. After a successful
  /// solve the caller writes the solve's full registry snapshot (all
  /// sections, grouped) there as JSON.
  std::string metrics_out_path;
  /// --events=<path>; empty = no event stream. The caller opens the file
  /// (typed kIoError on failure), attaches a JsonlEventSink to an EventBus,
  /// and wires the bus into options.events.
  std::string events_path;
  /// --events-filter=<categories>; pre-parsed so the fuzzed surface covers
  /// the filter grammar. Default passes every event.
  obs::EventFilter events_filter;
  /// --progress: mirror lifecycle events as a throttled human stderr line.
  bool progress = false;
};

/// Parse --eps, --threads, --algorithm, --certify, --max-retries,
/// --checkpoint, --profile, --fault-plan, --io-fault-plan, --metrics-out,
/// --storage, --shard-dir, --storage-verify, --storage-fallback, --events,
/// --events-filter, --progress. Numeric values are parsed strictly
/// (ParseError on garbage/overflow); enum values raise OptionsError with the
/// matching StatusCode. Flags not present keep SolveOptions defaults.
/// Consistency of --storage/--shard-dir is left to Solver::validate
/// (kInvalidStorage), so the CLI and library reject the same inputs with the
/// same code.
CliSolveOptions parse_solve_options(const ArgParser& args);

}  // namespace dmpc
