#include "child.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>

namespace dmpc::perf {
namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) _exit(3);
    done += static_cast<std::size_t>(n);
  }
}

[[noreturn]] void child_main(int fd, const std::function<std::string()>& body) {
  int code = 0;
  try {
    write_all(fd, body());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmpc_perf child: %s\n", e.what());
    code = 2;
  } catch (...) {
    std::fprintf(stderr, "dmpc_perf child: unknown exception\n");
    code = 2;
  }
  ::close(fd);
  std::fflush(stderr);
  // _exit: skip static destructors and atexit handlers inherited from the
  // parent; the child owns nothing the parent still needs.
  _exit(code);
}

}  // namespace

ChildResult run_child(const std::function<std::string()>& body,
                      double timeout_s) {
  ChildResult result;
  int fds[2];
  if (::pipe(fds) != 0) {
    result.error = std::string("pipe: ") + std::strerror(errno);
    return result;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    result.error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return result;
  }
  if (pid == 0) {
    // A child outlives nothing: if the parent dies, so does the run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(4);
    ::close(fds[0]);
    child_main(fds[1], body);
  }
  ::close(fds[1]);

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  bool timed_out = false;
  char buffer[1 << 16];
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      timed_out = ready == 0;
      if (ready < 0) result.error = std::string("poll: ") + std::strerror(errno);
      break;
    }
    const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the child closed its end.
    result.payload.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (timed_out || !result.error.empty()) ::kill(pid, SIGKILL);

  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      result.error = std::string("wait4: ") + std::strerror(errno);
      return result;
    }
  }
  result.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (timed_out) {
    result.error = "timed out after " + std::to_string(timeout_s) + " s";
  } else if (result.error.empty()) {
    if (WIFSIGNALED(status)) {
      result.error = "killed by signal " + std::to_string(WTERMSIG(status));
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      result.error = "exited with status " + std::to_string(WEXITSTATUS(status));
    }
  }
  result.ok = result.error.empty();
  return result;
}

}  // namespace dmpc::perf
