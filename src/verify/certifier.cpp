#include "verify/certifier.hpp"

#include <algorithm>
#include <limits>

#include "mpc/storage.hpp"
#include "support/check.hpp"

namespace dmpc::verify {
namespace {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();

/// Indices per find_first chunk for the edge, node and slot scans: a grain
/// of 1 would dispatch one pool task per index. find_first returns the
/// lowest qualifying index for any grain, so witnesses do not depend on it.
constexpr std::uint64_t kScanGrain = 4096;

ClaimResult pass(Claim claim, std::uint64_t checked) {
  ClaimResult result;
  result.claim = claim;
  result.verdict = Verdict::kPass;
  result.checked = checked;
  return result;
}

ClaimResult fail(Claim claim, std::uint64_t checked, Witness witness) {
  ClaimResult result;
  result.claim = claim;
  result.verdict = Verdict::kFail;
  result.checked = checked;
  result.has_witness = true;
  result.witness = std::move(witness);
  return result;
}

Witness edge_witness(const Graph& g, EdgeId e, std::string detail) {
  Witness w;
  w.kind = "edge";
  w.index = e;
  w.u = g.edge(e).u;
  w.v = g.edge(e).v;
  w.detail = std::move(detail);
  return w;
}

}  // namespace

ClaimResult Certifier::check_mis_independence(
    const Graph& g, const std::vector<bool>& in_set) const {
  const EdgeId m = g.num_edges();
  if (in_set.size() != g.num_nodes()) {
    Witness w;
    w.kind = "node";
    w.measured = static_cast<double>(in_set.size());
    w.bound = static_cast<double>(g.num_nodes());
    w.detail = "in_set size " + std::to_string(in_set.size()) +
               " != node count " + std::to_string(g.num_nodes());
    return fail(Claim::kMisIndependence, 0, std::move(w));
  }
  const std::uint64_t bad = executor_.find_first(
      0, m,
      [&](std::uint64_t e) {
        const Edge& edge = g.edge(e);
        return in_set[edge.u] && in_set[edge.v];
      },
      kScanGrain);
  if (bad == m) return pass(Claim::kMisIndependence, m);
  return fail(Claim::kMisIndependence, m,
              edge_witness(g, bad,
                           "both endpoints of edge " + std::to_string(bad) +
                               " = {" + std::to_string(g.edge(bad).u) + ", " +
                               std::to_string(g.edge(bad).v) +
                               "} are in the set"));
}

ClaimResult Certifier::check_mis_maximality(
    const Graph& g, const std::vector<bool>& in_set) const {
  const NodeId n = g.num_nodes();
  if (in_set.size() != n) {
    Witness w;
    w.kind = "node";
    w.detail = "in_set size mismatch";
    return fail(Claim::kMisMaximality, 0, std::move(w));
  }
  const std::uint64_t bad = executor_.find_first(
      0, n,
      [&](std::uint64_t v) {
        if (in_set[v]) return false;
        for (NodeId u : g.neighbors(static_cast<NodeId>(v))) {
          if (in_set[u]) return false;
        }
        return true;  // non-member with no member neighbor
      },
      kScanGrain);
  if (bad == n) return pass(Claim::kMisMaximality, n);
  Witness w;
  w.kind = "node";
  w.index = bad;
  w.u = bad;
  w.detail = "node " + std::to_string(bad) +
             " is outside the set and has no neighbor in it";
  return fail(Claim::kMisMaximality, n, std::move(w));
}

ClaimResult Certifier::check_matching_validity(
    const Graph& g, const std::vector<EdgeId>& matching) const {
  const std::uint64_t k = matching.size();
  const std::uint64_t bad_id = executor_.find_first(
      0, k, [&](std::uint64_t i) { return matching[i] >= g.num_edges(); },
      kScanGrain);
  if (bad_id != k) {
    Witness w;
    w.kind = "matching_slot";
    w.index = bad_id;
    w.measured = static_cast<double>(matching[bad_id]);
    w.bound = static_cast<double>(g.num_edges());
    w.detail = "matching slot " + std::to_string(bad_id) + " holds edge id " +
               std::to_string(matching[bad_id]) + " but the graph has only " +
               std::to_string(g.num_edges()) + " edges";
    return fail(Claim::kMatchingValidity, k, std::move(w));
  }
  // owner[v] = lowest matching slot claiming endpoint v. The serial fill is
  // O(k) and order-deterministic; the conflict scan below is parallel.
  std::vector<std::uint64_t> owner(g.num_nodes(), kNone);
  for (std::uint64_t i = 0; i < k; ++i) {
    const Edge& e = g.edge(matching[i]);
    owner[e.u] = std::min(owner[e.u], i);
    owner[e.v] = std::min(owner[e.v], i);
  }
  const std::uint64_t bad = executor_.find_first(
      0, k,
      [&](std::uint64_t i) {
        const Edge& e = g.edge(matching[i]);
        return owner[e.u] < i || owner[e.v] < i;
      },
      kScanGrain);
  if (bad == k) return pass(Claim::kMatchingValidity, k);
  const Edge& e = g.edge(matching[bad]);
  const NodeId shared = owner[e.u] < bad ? e.u : e.v;
  Witness w;
  w.kind = "matching_slot";
  w.index = bad;
  w.u = e.u;
  w.v = e.v;
  w.detail = "matching slots " + std::to_string(owner[shared]) + " and " +
             std::to_string(bad) + " both cover node " +
             std::to_string(shared);
  return fail(Claim::kMatchingValidity, k, std::move(w));
}

ClaimResult Certifier::check_matching_maximality(
    const Graph& g, const std::vector<EdgeId>& matching) const {
  std::vector<bool> matched(g.num_nodes(), false);
  for (EdgeId id : matching) {
    if (id >= g.num_edges()) continue;  // validity claim reports this
    matched[g.edge(id).u] = true;
    matched[g.edge(id).v] = true;
  }
  const EdgeId m = g.num_edges();
  const std::uint64_t bad = executor_.find_first(
      0, m,
      [&](std::uint64_t e) {
        const Edge& edge = g.edge(e);
        return !matched[edge.u] && !matched[edge.v];
      },
      kScanGrain);
  if (bad == m) return pass(Claim::kMatchingMaximality, m);
  return fail(Claim::kMatchingMaximality, m,
              edge_witness(g, bad,
                           "edge " + std::to_string(bad) + " = {" +
                               std::to_string(g.edge(bad).u) + ", " +
                               std::to_string(g.edge(bad).v) +
                               "} has no matched endpoint"));
}

ClaimResult Certifier::check_proper_coloring(
    const Graph& g, const std::vector<std::uint32_t>& color) const {
  if (color.size() != g.num_nodes()) {
    Witness w;
    w.kind = "node";
    w.detail = "color array size " + std::to_string(color.size()) +
               " != node count " + std::to_string(g.num_nodes());
    return fail(Claim::kProperColoring, 0, std::move(w));
  }
  const EdgeId m = g.num_edges();
  const std::uint64_t bad = executor_.find_first(
      0, m,
      [&](std::uint64_t e) {
        const Edge& edge = g.edge(e);
        return color[edge.u] == color[edge.v];
      },
      kScanGrain);
  if (bad == m) return pass(Claim::kProperColoring, m);
  Witness w = edge_witness(
      g, bad,
      "adjacent nodes " + std::to_string(g.edge(bad).u) + " and " +
          std::to_string(g.edge(bad).v) + " share color " +
          std::to_string(color[g.edge(bad).u]));
  w.measured = static_cast<double>(color[g.edge(bad).u]);
  return fail(Claim::kProperColoring, m, std::move(w));
}

ClaimResult Certifier::check_distance2_coloring(
    const Graph& g, const std::vector<std::uint32_t>& color) const {
  // Distance-1 collisions are distance-2 violations too; report them via the
  // same claim so one check covers the §5.1 requirement.
  if (color.size() != g.num_nodes()) {
    Witness w;
    w.kind = "node";
    w.detail = "color array size mismatch";
    return fail(Claim::kDistance2Coloring, 0, std::move(w));
  }
  const NodeId n = g.num_nodes();
  // Center scan: a violation at distance <= 2 is an edge collision or two
  // neighbors of some center sharing a color.
  const auto center_violation = [&](NodeId c, NodeId* out_u, NodeId* out_v) {
    std::vector<std::pair<std::uint32_t, NodeId>> palette;
    palette.reserve(g.degree(c) + 1);
    palette.emplace_back(color[c], c);
    for (NodeId u : g.neighbors(c)) palette.emplace_back(color[u], u);
    std::sort(palette.begin(), palette.end());
    for (std::size_t i = 1; i < palette.size(); ++i) {
      if (palette[i].first == palette[i - 1].first) {
        *out_u = std::min(palette[i - 1].second, palette[i].second);
        *out_v = std::max(palette[i - 1].second, palette[i].second);
        return true;
      }
    }
    return false;
  };
  const std::uint64_t bad = executor_.find_first(
      0, n,
      [&](std::uint64_t c) {
        NodeId u = 0, v = 0;
        return center_violation(static_cast<NodeId>(c), &u, &v);
      },
      /*grain=*/16);
  if (bad == n) return pass(Claim::kDistance2Coloring, n);
  NodeId u = 0, v = 0;
  center_violation(static_cast<NodeId>(bad), &u, &v);
  Witness w;
  w.kind = "node";
  w.index = bad;
  w.u = u;
  w.v = v;
  w.measured = static_cast<double>(color[u]);
  w.detail = "nodes " + std::to_string(u) + " and " + std::to_string(v) +
             " are within distance 2 (via center " + std::to_string(bad) +
             ") and share color " + std::to_string(color[u]);
  return fail(Claim::kDistance2Coloring, n, std::move(w));
}

ClaimResult Certifier::check_sparsifier_degree_cap(
    const SparsifyAudit& audit) const {
  if (audit.stages == 0 || audit.degree_cap == 0) {
    return skipped(Claim::kSparsifierDegreeCap);
  }
  if (audit.max_degree <= audit.degree_cap) {
    return pass(Claim::kSparsifierDegreeCap, audit.stages);
  }
  Witness w;
  w.kind = "iteration";
  w.measured = static_cast<double>(audit.max_degree);
  w.bound = static_cast<double>(audit.degree_cap);
  w.detail = "sparsified max degree " + std::to_string(audit.max_degree) +
             " exceeds the 2 n^{4 delta} cap " +
             std::to_string(audit.degree_cap);
  return fail(Claim::kSparsifierDegreeCap, audit.stages, std::move(w));
}

ClaimResult Certifier::check_sparsifier_invariants(
    const SparsifyAudit& audit) const {
  if (audit.stages == 0) return skipped(Claim::kSparsifierInvariants);
  if (audit.worst_degree_ratio > bounds_.max_degree_ratio) {
    Witness w;
    w.kind = "iteration";
    w.measured = audit.worst_degree_ratio;
    w.bound = bounds_.max_degree_ratio;
    w.detail = "invariant (i) degree ratio " +
               std::to_string(audit.worst_degree_ratio) +
               " exceeds certified bound " +
               std::to_string(bounds_.max_degree_ratio);
    return fail(Claim::kSparsifierInvariants, audit.stages, std::move(w));
  }
  // 2.0 is the "no measurable X(v)" sentinel — nothing to bound then.
  if (audit.worst_xv_ratio < bounds_.min_xv_ratio &&
      audit.worst_xv_ratio < 2.0) {
    Witness w;
    w.kind = "iteration";
    w.measured = audit.worst_xv_ratio;
    w.bound = bounds_.min_xv_ratio;
    w.detail = "invariant (ii) X(v) ratio " +
               std::to_string(audit.worst_xv_ratio) +
               " fell below certified bound " +
               std::to_string(bounds_.min_xv_ratio);
    return fail(Claim::kSparsifierInvariants, audit.stages, std::move(w));
  }
  return pass(Claim::kSparsifierInvariants, audit.stages);
}

ClaimResult Certifier::check_space_accounting(
    const mpc::Metrics& metrics, std::uint64_t machine_space) const {
  std::uint64_t checked = 1;
  if (metrics.peak_machine_load() > machine_space) {
    Witness w;
    w.kind = "machine";
    w.measured = static_cast<double>(metrics.peak_machine_load());
    w.bound = static_cast<double>(machine_space);
    w.detail = "peak machine load " +
               std::to_string(metrics.peak_machine_load()) +
               " exceeds machine space " + std::to_string(machine_space);
    return fail(Claim::kSpaceAccounting, checked, std::move(w));
  }
  std::uint64_t label_index = 0;
  for (const auto& [label, peak] : metrics.peak_load_by_label()) {
    ++checked;
    if (peak > machine_space) {
      Witness w;
      w.kind = "label";
      w.index = label_index;
      w.measured = static_cast<double>(peak);
      w.bound = static_cast<double>(machine_space);
      w.detail = "peak load of phase '" + label + "' (" +
                 std::to_string(peak) + ") exceeds machine space " +
                 std::to_string(machine_space);
      return fail(Claim::kSpaceAccounting, checked, std::move(w));
    }
    ++label_index;
  }
  return pass(Claim::kSpaceAccounting, checked);
}

ClaimResult Certifier::check_metrics_consistency(
    const mpc::Metrics& metrics) const {
  std::uint64_t checked = 0;
  std::uint64_t label_rounds = 0;
  for (const auto& [label, rounds] : metrics.rounds_by_label()) {
    label_rounds += rounds;
    ++checked;
  }
  if (label_rounds > metrics.rounds()) {
    Witness w;
    w.kind = "label";
    w.measured = static_cast<double>(label_rounds);
    w.bound = static_cast<double>(metrics.rounds());
    w.detail = "per-label round charges sum to " +
               std::to_string(label_rounds) + " > total rounds " +
               std::to_string(metrics.rounds());
    return fail(Claim::kMetricsConsistency, checked, std::move(w));
  }
  std::uint64_t label_comm = 0;
  for (const auto& [label, words] : metrics.communication_by_label()) {
    label_comm += words;
    ++checked;
  }
  if (label_comm > metrics.total_communication()) {
    Witness w;
    w.kind = "label";
    w.measured = static_cast<double>(label_comm);
    w.bound = static_cast<double>(metrics.total_communication());
    w.detail = "per-label communication sums to " +
               std::to_string(label_comm) + " > total communication " +
               std::to_string(metrics.total_communication());
    return fail(Claim::kMetricsConsistency, checked, std::move(w));
  }
  std::uint64_t label_index = 0;
  for (const auto& [label, peak] : metrics.peak_load_by_label()) {
    ++checked;
    if (peak > metrics.peak_machine_load()) {
      Witness w;
      w.kind = "label";
      w.index = label_index;
      w.measured = static_cast<double>(peak);
      w.bound = static_cast<double>(metrics.peak_machine_load());
      w.detail = "peak load of phase '" + label +
                 "' exceeds the global peak load";
      return fail(Claim::kMetricsConsistency, checked, std::move(w));
    }
    ++label_index;
  }
  return pass(Claim::kMetricsConsistency, checked);
}

ClaimResult Certifier::replay_claim(bool identical, std::uint64_t compared,
                                    std::uint64_t diff_index,
                                    const std::string& detail) {
  if (identical) return pass(Claim::kReplayIdentity, compared);
  Witness w;
  w.kind = "position";
  w.index = diff_index;
  w.detail = detail;
  return fail(Claim::kReplayIdentity, compared, std::move(w));
}

ClaimResult Certifier::check_storage_integrity(
    const mpc::IntegrityReport& report) {
  switch (report.status) {
    case mpc::IntegrityReport::Status::kVerified:
      return pass(Claim::kStorageIntegrity, report.shards_checked);
    case mpc::IntegrityReport::Status::kUnverified:
      return skipped(Claim::kStorageIntegrity);
    case mpc::IntegrityReport::Status::kFailed:
      break;
  }
  Witness w;
  w.kind = report.bad_shard == mpc::kManifestShard ? "manifest" : "shard";
  w.index = report.bad_shard == mpc::kManifestShard ? 0 : report.bad_shard;
  w.detail = report.detail;
  return fail(Claim::kStorageIntegrity, report.shards_checked, std::move(w));
}

ClaimResult Certifier::skipped(Claim claim) {
  ClaimResult result;
  result.claim = claim;
  result.verdict = Verdict::kSkipped;
  return result;
}

void Certifier::require(const Certificate& certificate) {
  if (!certificate.ok()) throw CertificationError(certificate);
}

}  // namespace dmpc::verify
