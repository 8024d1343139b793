// The peak RSS run_child reports belongs to one run only: a child that
// touches 256 MiB followed by one that touches 16 MiB must report the second
// under 64 MiB (a process-wide ru_maxrss would report >= 256 MiB for both).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "child.hpp"

namespace {

std::string touch_mib(std::size_t mib) {
  const std::size_t bytes = mib << 20;
  std::unique_ptr<char[]> block(new char[bytes]);
  std::memset(block.get(), 1, bytes);
  // Read the block back so the writes cannot be optimized away.
  std::size_t sum = 0;
  for (std::size_t i = 0; i < bytes; i += 4096) sum += block[i];
  return std::to_string(sum);
}

}  // namespace

int main() {
  using dmpc::perf::run_child;
  const auto big = run_child([] { return touch_mib(256); }, 60.0);
  const auto small = run_child([] { return touch_mib(16); }, 60.0);
  std::printf("big: ok=%d peak_rss=%.1f MiB\nsmall: ok=%d peak_rss=%.1f MiB\n",
              big.ok, big.peak_rss_mb, small.ok, small.peak_rss_mb);
  if (!big.ok || !small.ok) {
    std::fprintf(stderr, "FAIL: child failed: %s%s\n", big.error.c_str(),
                 small.error.c_str());
    return 1;
  }
  if (big.peak_rss_mb < 256.0) {
    std::fprintf(stderr, "FAIL: 256 MiB child reported %.1f MiB\n",
                 big.peak_rss_mb);
    return 1;
  }
  if (small.peak_rss_mb >= 64.0) {
    std::fprintf(stderr, "FAIL: 16 MiB child reported %.1f MiB\n",
                 small.peak_rss_mb);
    return 1;
  }
  return 0;
}
