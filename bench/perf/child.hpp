// Run one benchmark repeat in a fork()ed child and collect its resources.
//
// The parent reads the child's CPU time and peak RSS from wait4(), so the
// peak belongs to that child alone. Linux copies the parent's RSS high-water
// mark into a forked child, so the parent must never touch graph-sized
// memory itself: it only forks, waits, and aggregates the small payloads the
// children write back through a pipe.
#pragma once

#include <functional>
#include <string>

namespace dmpc::perf {

struct ChildResult {
  bool ok = false;          ///< Exited with status 0 within the timeout.
  std::string error;        ///< Why not, when !ok.
  std::string payload;      ///< Everything the child's body returned.
  double cpu_s = 0.0;       ///< Child user + system CPU time.
  double peak_rss_mb = 0.0; ///< The child's own ru_maxrss, in MiB.
};

/// Fork, run `body` in the child, and wait for it. The child sends body()'s
/// return value to the parent and exits 0; an exception in body() makes it
/// print the message to stderr and exit 2. A child still running after
/// `timeout_s` seconds is killed and reported as failed. The caller must be
/// single-threaded (fork copies only the calling thread).
ChildResult run_child(const std::function<std::string()>& body,
                      double timeout_s);

}  // namespace dmpc::perf
