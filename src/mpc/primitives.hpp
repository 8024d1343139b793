// Lemma-4 primitives: sorting, prefix sums, reductions, broadcast.
//
// "For any positive constant eps, sorting and computing prefix sums of n
// numbers can be performed deterministically in MPC in a constant number of
// rounds using S = n^eps space per machine and O(n) total space."
// [Goodrich–Sitchinava–Zhang, via paper Lemma 4]
//
// The primitives below execute centrally but model the distributed layout:
// data lives in machine blocks, the block layout is space-checked, the round
// charge is the fan-in-S tree depth (the Lemma-4 "constant", which equals
// ceil(1/eps) when N = poly(n) and S = n^eps), and communication volume is
// accumulated. All higher-level algorithms do their cross-machine work
// exclusively through these, so their measured round/space/communication
// totals follow the paper's cost model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "mpc/cluster.hpp"
#include "obs/trace.hpp"

namespace dmpc::mpc {

/// Verify that `records` records of `arity` words each fit in the cluster's
/// blocked layout (every machine's block <= S); records/machine is
/// ceil(records/M). Observes the per-machine load.
void check_blocked_layout(Cluster& cluster, std::uint64_t records,
                          std::uint64_t arity, const std::string& what);

/// Round/communication charges for one primitive invocation over `records`
/// records of `arity` words. Exposed for tests.
std::uint64_t sort_round_cost(const Cluster& cluster, std::uint64_t records);
std::uint64_t scan_round_cost(const Cluster& cluster, std::uint64_t records);

/// Deterministic distributed sort (Lemma 4). Sorts in place. Runs on the
/// cluster's host executor; the output permutation depends only on the data
/// (see exec::parallel_sort), never on the thread count.
template <typename T, typename Less>
void dsort(Cluster& cluster, std::vector<T>& v, Less less,
           const std::string& label = "sort") {
  const std::uint64_t arity = (sizeof(T) + 7) / 8;
  check_blocked_layout(cluster, v.size(), arity, label);
  // Re-sorting after a replayed attempt is idempotent, so the recovery
  // engine may run the body any number of times.
  const std::uint64_t rounds = sort_round_cost(cluster, v.size());
  cluster.charge(label, rounds, v.size() * arity * rounds, v.size() * arity,
                 [&] { exec::parallel_sort(cluster.executor(), v, less); });
  obs::trace_primitive(cluster.trace(), label, rounds,
                       v.size() * arity * rounds);
}

/// Exclusive prefix sums of a distributed array (Lemma 4).
std::vector<std::uint64_t> prefix_sum_exclusive(
    Cluster& cluster, std::span<const std::uint64_t> values,
    const std::string& label = "prefix_sum");

/// Global sum via a fan-in-S tree.
std::uint64_t reduce_sum(Cluster& cluster, std::span<const std::uint64_t> values,
                         const std::string& label = "reduce");

/// Global max via a fan-in-S tree.
std::uint64_t reduce_max(Cluster& cluster, std::span<const std::uint64_t> values,
                         const std::string& label = "reduce");

/// Global sum of doubles (objective aggregation in conditional expectations).
double reduce_sum_double(Cluster& cluster, std::span<const double> values,
                         const std::string& label = "reduce");

/// Broadcast `words` words from one machine to all (fan-out-S tree).
void broadcast(Cluster& cluster, std::uint64_t words,
               const std::string& label = "broadcast");

/// Group-by-key sums: input (key, value) pairs in any order; output is one
/// (key, sum) per distinct key, sorted by key. Costs a sort plus a scan.
std::vector<std::pair<std::uint64_t, std::uint64_t>> group_sum(
    Cluster& cluster,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs,
    const std::string& label = "group_sum");

}  // namespace dmpc::mpc
