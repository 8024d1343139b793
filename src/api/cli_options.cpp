#include "api/cli_options.hpp"

#include <cstdint>

#include "support/parse_error.hpp"

namespace dmpc {
namespace {

// Bounds-checked narrowing for flag values: the ParseError names the flag so
// the diagnostic is actionable without a stack trace.
std::uint32_t require_u32_flag(const ArgParser& args, const std::string& key,
                               std::uint32_t fallback) {
  const std::int64_t value =
      args.require_int(key, static_cast<std::int64_t>(fallback));
  if (value < 0 || value > static_cast<std::int64_t>(UINT32_MAX)) {
    throw ParseError(ParseErrorCode::kOutOfRange,
                     "value of --" + key + " must be in [0, 2^32)", 0, 0,
                     std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

Algorithm parse_algorithm(const std::string& name) {
  if (name == "auto") return Algorithm::kAuto;
  if (name == "sparse") return Algorithm::kSparsification;
  if (name == "lowdeg") return Algorithm::kLowDegree;
  throw OptionsError(Status::error(
      StatusCode::kInvalidAlgorithm,
      "unknown algorithm '" + name + "' (expected auto|sparse|lowdeg)"));
}

verify::CertifyMode parse_certify_mode(const std::string& name) {
  if (name == "off") return verify::CertifyMode::kOff;
  if (name == "answer") return verify::CertifyMode::kAnswer;
  if (name == "full") return verify::CertifyMode::kFull;
  throw OptionsError(Status::error(
      StatusCode::kInvalidCertifyMode,
      "unknown certify mode '" + name + "' (expected off|answer|full)"));
}

mpc::CheckpointMode parse_checkpoint_mode(const std::string& name) {
  if (name == "round") return mpc::CheckpointMode::kRound;
  if (name == "phase") return mpc::CheckpointMode::kPhase;
  if (name == "off") return mpc::CheckpointMode::kOff;
  throw OptionsError(Status::error(
      StatusCode::kInvalidRetryBudget,
      "unknown checkpoint mode '" + name + "' (expected round|phase|off)"));
}

mpc::StorageBackend parse_storage_backend(const std::string& name) {
  if (name == "memory") return mpc::StorageBackend::kMemory;
  if (name == "mmap") return mpc::StorageBackend::kMmap;
  throw OptionsError(Status::error(
      StatusCode::kInvalidStorage,
      "unknown storage backend '" + name + "' (expected memory|mmap)"));
}

mpc::VerifyMode parse_verify_mode(const std::string& name) {
  if (name == "off") return mpc::VerifyMode::kOff;
  if (name == "open") return mpc::VerifyMode::kOpen;
  if (name == "paranoid") return mpc::VerifyMode::kParanoid;
  throw OptionsError(Status::error(
      StatusCode::kInvalidStorage,
      "unknown storage verify mode '" + name +
          "' (expected off|open|paranoid)"));
}

mpc::FallbackMode parse_fallback_mode(const std::string& name) {
  if (name == "none") return mpc::FallbackMode::kNone;
  if (name == "memory") return mpc::FallbackMode::kMemory;
  throw OptionsError(Status::error(
      StatusCode::kInvalidStorage,
      "unknown storage fallback mode '" + name + "' (expected none|memory)"));
}

CliSolveOptions parse_solve_options(const ArgParser& args) {
  CliSolveOptions cli;
  SolveOptions& options = cli.options;
  options.eps = args.require_double("eps", options.eps);
  options.threads = require_u32_flag(args, "threads", options.threads);
  options.algorithm = parse_algorithm(args.get("algorithm", "auto"));
  options.certify = parse_certify_mode(args.get("certify", "off"));
  options.recovery.max_retries =
      require_u32_flag(args, "max-retries", options.recovery.max_retries);
  options.recovery.checkpoint =
      parse_checkpoint_mode(args.get("checkpoint", "round"));
  options.profile = args.has("profile");
  options.storage.backend = parse_storage_backend(args.get("storage", "memory"));
  options.storage.shard_dir = args.get("shard-dir", "");
  options.storage.verify =
      parse_verify_mode(args.get("storage-verify", "off"));
  options.storage.fallback =
      parse_fallback_mode(args.get("storage-fallback", "none"));
  cli.fault_plan_path = args.get("fault-plan", "");
  cli.io_fault_plan_path = args.get("io-fault-plan", "");
  cli.metrics_out_path = args.get("metrics-out", "");
  cli.events_path = args.get("events", "");
  cli.events_filter = obs::parse_event_filter(args.get("events-filter", "all"));
  cli.progress = args.has("progress");
  return cli;
}

}  // namespace dmpc
