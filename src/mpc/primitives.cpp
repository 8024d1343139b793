#include "mpc/primitives.hpp"

#include "support/math.hpp"

namespace dmpc::mpc {

void check_blocked_layout(Cluster& cluster, std::uint64_t records,
                          std::uint64_t arity, const std::string& what) {
  if (records == 0) return;
  const std::uint64_t per_machine =
      ceil_div(records, cluster.machines()) * arity;
  cluster.check_load(per_machine, what + ": block layout", what);
}

std::uint64_t sort_round_cost(const Cluster& cluster, std::uint64_t records) {
  // Goodrich's BSP sorting simulated in MapReduce: O(log_S N) communication
  // rounds; we charge two tree traversals (sample/split + route).
  return 2 * cluster.tree_depth(std::max<std::uint64_t>(records, 2));
}

std::uint64_t scan_round_cost(const Cluster& cluster, std::uint64_t records) {
  // Up-sweep + down-sweep of the fan-in-S tree.
  return 2 * cluster.tree_depth(std::max<std::uint64_t>(records, 2));
}

std::vector<std::uint64_t> prefix_sum_exclusive(
    Cluster& cluster, std::span<const std::uint64_t> values,
    const std::string& label) {
  check_blocked_layout(cluster, values.size(), 1, label);
  std::vector<std::uint64_t> out(values.size(), 0);
  // Two-pass chunked scan: per-chunk sums in parallel, serial exclusive scan
  // over the (few) chunk sums, then per-chunk writes in parallel. Word sums
  // are exact, so this agrees with the plain serial scan for any chunking.
  // The body overwrites `out` in full, so a recovery replay is idempotent.
  const std::uint64_t rounds = scan_round_cost(cluster, values.size());
  const std::uint64_t words =
      cluster.tree_depth(values.size()) * cluster.machines();
  cluster.charge(label, rounds, words, values.size(), [&] {
    constexpr std::uint64_t kGrain = 4096;
    const std::uint64_t n = values.size();
    const exec::Executor& ex = cluster.executor();
    if (!ex.parallel() || n <= kGrain) {
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        out[i] = acc;
        acc += values[i];
      }
      return;
    }
    const std::uint64_t chunks = (n + kGrain - 1) / kGrain;
    std::vector<std::uint64_t> chunk_offset(chunks, 0);
    ex.for_each(0, chunks, [&](std::uint64_t c) {
      const std::uint64_t lo = c * kGrain;
      const std::uint64_t hi = std::min(n, lo + kGrain);
      std::uint64_t sum = 0;
      for (std::uint64_t i = lo; i < hi; ++i) sum += values[i];
      chunk_offset[c] = sum;
    });
    std::uint64_t acc = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const std::uint64_t sum = chunk_offset[c];
      chunk_offset[c] = acc;
      acc += sum;
    }
    ex.for_each(0, chunks, [&](std::uint64_t c) {
      const std::uint64_t lo = c * kGrain;
      const std::uint64_t hi = std::min(n, lo + kGrain);
      std::uint64_t local = chunk_offset[c];
      for (std::uint64_t i = lo; i < hi; ++i) {
        out[i] = local;
        local += values[i];
      }
    });
  });
  obs::trace_primitive(cluster.trace(), label, rounds, words);
  return out;
}

std::uint64_t reduce_sum(Cluster& cluster,
                         std::span<const std::uint64_t> values,
                         const std::string& label) {
  check_blocked_layout(cluster, values.size(), 1, label);
  const std::uint64_t rounds =
      cluster.tree_depth(std::max<std::uint64_t>(values.size(), 2));
  // Exact word arithmetic: any reduction order gives the same sum.
  std::uint64_t result = 0;
  const std::uint64_t words = rounds * cluster.machines();
  cluster.charge(label, rounds, words, values.size(), [&] {
    result = cluster.executor().map_reduce(
    0, values.size(), std::uint64_t{0},
    [&](std::uint64_t i) { return values[i]; },
    [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  obs::trace_primitive(cluster.trace(), label, rounds, words);
  return result;
}

std::uint64_t reduce_max(Cluster& cluster,
                         std::span<const std::uint64_t> values,
                         const std::string& label) {
  check_blocked_layout(cluster, values.size(), 1, label);
  const std::uint64_t rounds =
      cluster.tree_depth(std::max<std::uint64_t>(values.size(), 2));
  std::uint64_t result = 0;
  const std::uint64_t words = rounds * cluster.machines();
  cluster.charge(label, rounds, words, values.size(), [&] {
    result = cluster.executor().map_reduce(
    0, values.size(), std::uint64_t{0},
    [&](std::uint64_t i) { return values[i]; },
    [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
  });
  obs::trace_primitive(cluster.trace(), label, rounds, words);
  return result;
}

double reduce_sum_double(Cluster& cluster, std::span<const double> values,
                         const std::string& label) {
  check_blocked_layout(cluster, values.size(), 1, label);
  const std::uint64_t rounds =
      cluster.tree_depth(std::max<std::uint64_t>(values.size(), 2));
  // map_reduce's fixed-association chunked fold makes this floating-point
  // sum bitwise identical for every thread count (the serial executor runs
  // the same chunked algorithm).
  double result = 0.0;
  const std::uint64_t words = rounds * cluster.machines();
  cluster.charge(label, rounds, words, values.size(), [&] {
    result = cluster.executor().map_reduce(
    0, values.size(), 0.0, [&](std::uint64_t i) { return values[i]; },
    [](double a, double b) { return a + b; });
  });
  obs::trace_primitive(cluster.trace(), label, rounds, words);
  return result;
}

void broadcast(Cluster& cluster, std::uint64_t words,
               const std::string& label) {
  cluster.check_load(words, label, label);
  const std::uint64_t rounds = cluster.tree_depth(cluster.machines());
  // No central compute: the body is empty, but the fan-out tree still loses
  // work to scheduled faults, so the recovery engine accounts its retries.
  cluster.charge(label, rounds, words * cluster.machines(), words);
  obs::trace_primitive(cluster.trace(), label, rounds,
                       words * cluster.machines());
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> group_sum(
    Cluster& cluster,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs,
    const std::string& label) {
  dsort(cluster, pairs,
        [](const auto& a, const auto& b) { return a.first < b.first; }, label);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  const std::uint64_t rounds = scan_round_cost(cluster, pairs.size());
  cluster.charge(label, rounds, 0, 2 * pairs.size(), [&] {
    out.clear();
    for (const auto& [key, value] : pairs) {
      if (!out.empty() && out.back().first == key) {
        out.back().second += value;
      } else {
        out.emplace_back(key, value);
      }
    }
  });
  obs::trace_primitive(cluster.trace(), label, rounds, 0);
  return out;
}

}  // namespace dmpc::mpc
