// Typed option-validation results for the public API.
//
// Historically, bad options (eps = 0, negative headroom, a typo'd trace
// format) surfaced as DMPC_CHECK failures thrown from the middle of a
// pipeline — correct but hostile: the caller gets a file:line assertion for
// what is really *their* input error. The Solver facade validates options up
// front and reports problems as a Status with a stable code, so callers can
// branch on the failure class and print the human message.
#pragma once

#include <string>
#include <utility>

#include "support/check.hpp"

namespace dmpc {

/// Stable identifier for each validation rule (one per rejectable option).
enum class StatusCode {
  kOk = 0,
  kInvalidEps,           ///< eps must satisfy 0 < eps < 1.
  kInvalidSpaceHeadroom, ///< space_headroom must be > 0.
  kInvalidDispatchSlack, ///< dispatch_slack must be > 0.
  kInvalidThreads,       ///< threads must be <= kMaxThreads.
  kInvalidAlgorithm,     ///< unknown algorithm name (CLI parsing).
  kInvalidTraceFormat,   ///< trace sink set but format not jsonl|chrome.
  kInvalidClusterOverrides, ///< machine_space override must be 0 or >= 2.
  kInvalidFaultPlan,     ///< structurally malformed fault schedule.
  kInvalidIoFaultPlan,   ///< structurally malformed host-I/O fault schedule.
  kInvalidRetryBudget,   ///< max_retries/backoff_rounds out of range.
  kUnrecoverableFault,   ///< plan provably exceeds the recovery policy.
  kInvalidCertifyMode,   ///< unknown certify mode name (CLI parsing).
  kIoError,              ///< cannot open an output file (--metrics-out, --trace).
  kInvalidStorage,       ///< storage backend/shard_dir combination invalid.
  kInvalidEventFilter,   ///< malformed --events-filter category list.
};

/// Short stable name for a code ("invalid_eps", ...), for logs and tests.
const char* status_code_name(StatusCode code);

/// The result of validating options: kOk, or a code plus a human-readable
/// message naming the offending option and the accepted range.
class Status {
 public:
  Status() = default;  ///< OK.

  static Status error(StatusCode code, std::string message) {
    Status s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code_name>: <message>".
  std::string to_string() const {
    if (ok()) return "ok";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Thrown by Solver entry points invoked with invalid options. Derives from
/// CheckFailure so pre-Solver call sites that catch CheckFailure keep
/// working; new code should catch OptionsError and inspect status().
class OptionsError : public CheckFailure {
 public:
  explicit OptionsError(Status status)
      : CheckFailure("invalid options — " + status.to_string()),
        status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace dmpc
