// The certification subsystem: every checker passes on a valid answer,
// localizes the lowest-index violation on a corrupted one, and produces the
// same verdict + witness for every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/report_json.hpp"
#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "mpc/metrics.hpp"
#include "verify/certificate.hpp"
#include "verify/certifier.hpp"

namespace dmpc {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using verify::Certificate;
using verify::CertificationError;
using verify::Certifier;
using verify::Claim;
using verify::ClaimResult;
using verify::SparsifyAudit;
using verify::Verdict;

Certifier make_certifier(std::uint32_t threads = 1) {
  return Certifier(exec::Executor::with_threads(threads));
}

// A valid MIS on g via greedy, for corrupt-and-check tests.
std::vector<bool> greedy_mis(const Graph& g) {
  std::vector<bool> in_set(g.num_nodes(), false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bool blocked = false;
    for (NodeId u : g.neighbors(v)) blocked = blocked || in_set[u];
    if (!blocked) in_set[v] = true;
  }
  return in_set;
}

std::vector<EdgeId> greedy_matching(const Graph& g) {
  std::vector<bool> used(g.num_nodes(), false);
  std::vector<EdgeId> matching;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto edge = g.edge(e);
    if (used[edge.u] || used[edge.v]) continue;
    used[edge.u] = used[edge.v] = true;
    matching.push_back(e);
  }
  return matching;
}

TEST(VerifyMis, ValidAnswerPassesBothClaims) {
  const Graph g = graph::gnm(300, 2400, 1);
  const auto in_set = greedy_mis(g);
  const Certifier certifier = make_certifier();
  const ClaimResult indep = certifier.check_mis_independence(g, in_set);
  EXPECT_EQ(indep.verdict, Verdict::kPass);
  EXPECT_EQ(indep.checked, g.num_edges());
  EXPECT_FALSE(indep.has_witness);
  const ClaimResult maximal = certifier.check_mis_maximality(g, in_set);
  EXPECT_EQ(maximal.verdict, Verdict::kPass);
  EXPECT_EQ(maximal.checked, g.num_nodes());
}

TEST(VerifyMis, FlippedBitYieldsEdgeWitness) {
  const Graph g = graph::gnm(300, 2400, 1);
  auto in_set = greedy_mis(g);
  // Flip a non-member adjacent to a member: independence breaks.
  NodeId flipped = graph::kNoNode;
  for (NodeId v = 0; v < g.num_nodes() && flipped == graph::kNoNode; ++v) {
    if (in_set[v]) continue;
    for (NodeId u : g.neighbors(v)) {
      if (in_set[u]) {
        flipped = v;
        break;
      }
    }
  }
  ASSERT_NE(flipped, graph::kNoNode);
  in_set[flipped] = true;
  const ClaimResult r = make_certifier().check_mis_independence(g, in_set);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  ASSERT_TRUE(r.has_witness);
  EXPECT_EQ(r.witness.kind, "edge");
  // The witness names a real violating edge with both endpoints in the set.
  EXPECT_TRUE(in_set[r.witness.u] && in_set[r.witness.v]);
  // It is the lowest violating edge id.
  for (EdgeId e = 0; e < r.witness.index; ++e) {
    const auto edge = g.edge(e);
    EXPECT_FALSE(in_set[edge.u] && in_set[edge.v]);
  }
}

TEST(VerifyMis, ClearedBitYieldsMaximalityWitness) {
  const Graph g = graph::gnm(300, 2400, 2);
  auto in_set = greedy_mis(g);
  // Remove an isolated-in-the-set member whose neighbors are all
  // non-members: maximality breaks at that node.
  NodeId removed = graph::kNoNode;
  for (NodeId v = 0; v < g.num_nodes() && removed == graph::kNoNode; ++v) {
    if (in_set[v] && g.degree(v) > 0) removed = v;
  }
  ASSERT_NE(removed, graph::kNoNode);
  in_set[removed] = false;
  const ClaimResult r = make_certifier().check_mis_maximality(g, in_set);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_EQ(r.witness.kind, "node");
  EXPECT_FALSE(in_set[r.witness.index]);
}

TEST(VerifyMis, WitnessIsThreadCountInvariant) {
  const Graph g = graph::gnm(500, 6000, 3);
  auto in_set = greedy_mis(g);
  // Corrupt several places; the reported witness must be the lowest.
  in_set[100] = in_set[200] = in_set[400] = true;
  const ClaimResult serial =
      make_certifier(1).check_mis_independence(g, in_set);
  const ClaimResult parallel =
      make_certifier(8).check_mis_independence(g, in_set);
  ASSERT_EQ(serial.verdict, Verdict::kFail);
  EXPECT_EQ(serial.witness.index, parallel.witness.index);
  EXPECT_EQ(serial.witness.u, parallel.witness.u);
  EXPECT_EQ(serial.witness.v, parallel.witness.v);

  // A matching claim whose violations sit in different scan chunks (the
  // certifier scans a few thousand indices per pool task): 10000 disjoint
  // edges, all matched except edges 1000 and 9000.
  const EdgeId k = 10000;
  std::vector<graph::Edge> edges;
  for (EdgeId e = 0; e < k; ++e) {
    edges.push_back(
        {static_cast<NodeId>(2 * e), static_cast<NodeId>(2 * e + 1)});
  }
  const Graph disjoint = Graph::from_edges(static_cast<NodeId>(2 * k), edges);
  std::vector<EdgeId> matching;
  for (EdgeId e = 0; e < k; ++e) {
    if (e != 1000 && e != 9000) matching.push_back(e);
  }
  const ClaimResult serial_matching =
      make_certifier(1).check_matching_maximality(disjoint, matching);
  const ClaimResult parallel_matching =
      make_certifier(4).check_matching_maximality(disjoint, matching);
  ASSERT_EQ(serial_matching.verdict, Verdict::kFail);
  ASSERT_EQ(parallel_matching.verdict, Verdict::kFail);
  EXPECT_EQ(serial_matching.witness.index, 1000u);
  EXPECT_EQ(parallel_matching.witness.index, 1000u);
}

TEST(VerifyMatching, ValidAnswerPasses) {
  const Graph g = graph::gnm(300, 2400, 4);
  const auto matching = greedy_matching(g);
  ASSERT_TRUE(graph::is_maximal_matching(g, matching));
  const Certifier certifier = make_certifier();
  EXPECT_EQ(certifier.check_matching_validity(g, matching).verdict,
            Verdict::kPass);
  EXPECT_EQ(certifier.check_matching_maximality(g, matching).verdict,
            Verdict::kPass);
}

TEST(VerifyMatching, SharedEndpointYieldsSlotWitness) {
  const Graph g = graph::gnm(300, 2400, 4);
  auto matching = greedy_matching(g);
  ASSERT_GE(matching.size(), 2u);
  // Duplicate the first matched edge into the last slot: two slots now
  // share both endpoints.
  matching.back() = matching.front();
  const ClaimResult r = make_certifier().check_matching_validity(g, matching);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_EQ(r.witness.kind, "matching_slot");
  EXPECT_NE(r.witness.detail.find("both cover node"), std::string::npos)
      << r.witness.detail;
}

TEST(VerifyMatching, BogusEdgeIdYieldsWitness) {
  const Graph g = graph::gnm(100, 500, 5);
  auto matching = greedy_matching(g);
  matching.push_back(g.num_edges() + 17);  // not a real edge
  const ClaimResult r = make_certifier().check_matching_validity(g, matching);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_EQ(r.witness.index, matching.size() - 1);
}

TEST(VerifyMatching, DroppedEdgeYieldsUncoveredWitness) {
  const Graph g = graph::gnm(300, 2400, 6);
  auto matching = greedy_matching(g);
  ASSERT_FALSE(matching.empty());
  const EdgeId dropped = matching.front();
  matching.erase(matching.begin());
  const ClaimResult r =
      make_certifier().check_matching_maximality(g, matching);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_EQ(r.witness.kind, "edge");
  // The dropped edge itself is uncovered, so the witness is at most it.
  EXPECT_LE(r.witness.index, dropped);
}

TEST(VerifyColoring, ProperAndDistance2) {
  // A path 0-1-2-3: colors (0,1,0,1) are proper but NOT distance-2 (nodes
  // 0 and 2 share neighbor 1).
  const Graph path = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<std::uint32_t> two_coloring = {0, 1, 0, 1};
  const Certifier certifier = make_certifier();
  EXPECT_EQ(certifier.check_proper_coloring(path, two_coloring).verdict,
            Verdict::kPass);
  const ClaimResult d2 =
      certifier.check_distance2_coloring(path, two_coloring);
  ASSERT_EQ(d2.verdict, Verdict::kFail);
  EXPECT_EQ(d2.witness.kind, "node");

  const std::vector<std::uint32_t> rainbow = {0, 1, 2, 3};
  EXPECT_EQ(certifier.check_distance2_coloring(path, rainbow).verdict,
            Verdict::kPass);

  const std::vector<std::uint32_t> monochrome = {0, 0, 0, 0};
  const ClaimResult improper =
      certifier.check_proper_coloring(path, monochrome);
  ASSERT_EQ(improper.verdict, Verdict::kFail);
  EXPECT_EQ(improper.witness.index, 0u);  // lowest violating edge
}

TEST(VerifyAudit, DegreeCapAndInvariants) {
  const Certifier certifier = make_certifier();
  SparsifyAudit empty;
  EXPECT_EQ(certifier.check_sparsifier_degree_cap(empty).verdict,
            Verdict::kSkipped);
  EXPECT_EQ(certifier.check_sparsifier_invariants(empty).verdict,
            Verdict::kSkipped);

  SparsifyAudit good;
  good.stages = 3;
  good.max_degree = 10;
  good.degree_cap = 16;
  good.worst_degree_ratio = 1.4;
  good.worst_xv_ratio = 0.0;  // measured floor on real workloads
  EXPECT_EQ(certifier.check_sparsifier_degree_cap(good).verdict,
            Verdict::kPass);
  EXPECT_EQ(certifier.check_sparsifier_invariants(good).verdict,
            Verdict::kPass);

  SparsifyAudit blown = good;
  blown.max_degree = 20;
  const ClaimResult cap = certifier.check_sparsifier_degree_cap(blown);
  ASSERT_EQ(cap.verdict, Verdict::kFail);
  EXPECT_DOUBLE_EQ(cap.witness.measured, 20.0);
  EXPECT_DOUBLE_EQ(cap.witness.bound, 16.0);

  SparsifyAudit ratio = good;
  ratio.worst_degree_ratio = 100.0;
  EXPECT_EQ(certifier.check_sparsifier_invariants(ratio).verdict,
            Verdict::kFail);
}

TEST(VerifySpace, AccountingAndConsistency) {
  const Certifier certifier = make_certifier();
  mpc::Metrics metrics;
  metrics.charge_rounds(2, "phase/a");
  metrics.observe_load(100, "phase/a");
  metrics.observe_load(250, "phase/a");
  EXPECT_EQ(certifier.check_space_accounting(metrics, 250).verdict,
            Verdict::kPass);
  const ClaimResult r = certifier.check_space_accounting(metrics, 200);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_DOUBLE_EQ(r.witness.measured, 250.0);
  EXPECT_DOUBLE_EQ(r.witness.bound, 200.0);
  EXPECT_EQ(certifier.check_metrics_consistency(metrics).verdict,
            Verdict::kPass);
}

TEST(VerifyCertificate, SummaryRequireAndJson) {
  Certificate certificate;
  certificate.mode = verify::CertifyMode::kFull;
  ClaimResult pass;
  pass.claim = Claim::kMisIndependence;
  pass.verdict = Verdict::kPass;
  pass.checked = 42;
  certificate.claims.push_back(pass);
  certificate.claims.push_back(Certifier::skipped(Claim::kReplayIdentity));
  EXPECT_TRUE(certificate.ok());
  EXPECT_EQ(certificate.failures(), 0u);
  EXPECT_EQ(certificate.first_failure(), nullptr);
  EXPECT_NE(certificate.summary().find("certificate ok"), std::string::npos);
  Certifier::require(certificate);  // must not throw

  ClaimResult fail;
  fail.claim = Claim::kMisMaximality;
  fail.verdict = Verdict::kFail;
  fail.checked = 42;
  fail.has_witness = true;
  fail.witness.kind = "node";
  fail.witness.index = 7;
  fail.witness.detail = "node 7 is uncovered";
  certificate.claims.push_back(fail);
  EXPECT_FALSE(certificate.ok());
  EXPECT_EQ(certificate.failures(), 1u);
  ASSERT_NE(certificate.first_failure(), nullptr);
  EXPECT_EQ(certificate.first_failure()->claim, Claim::kMisMaximality);
  EXPECT_NE(certificate.summary().find("FAILED"), std::string::npos);
  EXPECT_NE(certificate.summary().find("node 7 is uncovered"),
            std::string::npos);

  try {
    Certifier::require(certificate);
    FAIL() << "expected CertificationError";
  } catch (const CertificationError& e) {
    EXPECT_EQ(e.certificate().failures(), 1u);
    EXPECT_NE(std::string(e.what()).find("mis_maximality"),
              std::string::npos);
  }
}

TEST(VerifyCertificate, ReplayClaimCarriesDiffIndex) {
  const ClaimResult ok =
      Certifier::replay_claim(true, 1000, 0, "");
  EXPECT_EQ(ok.verdict, Verdict::kPass);
  EXPECT_EQ(ok.checked, 1000u);
  const ClaimResult bad = Certifier::replay_claim(
      false, 1000, 17, "fault-free replay disagrees on node 17");
  ASSERT_EQ(bad.verdict, Verdict::kFail);
  EXPECT_EQ(bad.witness.index, 17u);
}

TEST(VerifyCertificate, FailedClaimSerializesItsWitness) {
  // A corrupted MIS answer must surface a concrete, serialized witness.
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  const std::vector<bool> corrupt = {true, true, false};  // 0-1 both in
  const ClaimResult r = make_certifier().check_mis_independence(g, corrupt);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  Certificate certificate;
  certificate.mode = verify::CertifyMode::kAnswer;
  certificate.claims.push_back(r);
  const std::string json = to_json(certificate).dump();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"witness\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"edge\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"detail\""), std::string::npos) << json;
  // Passing claims carry no witness block.
  const std::vector<bool> valid = {true, false, true};
  Certificate good;
  good.claims.push_back(make_certifier().check_mis_independence(g, valid));
  EXPECT_EQ(to_json(good).dump().find("\"witness\""), std::string::npos);
}

TEST(VerifyCertificate, StableNames) {
  EXPECT_STREQ(verify::claim_name(Claim::kMisIndependence),
               "mis_independence");
  EXPECT_STREQ(verify::claim_name(Claim::kSparsifierDegreeCap),
               "sparsifier_degree_cap");
  EXPECT_STREQ(verify::claim_name(Claim::kReplayIdentity), "replay_identity");
  EXPECT_STREQ(verify::verdict_name(Verdict::kSkipped), "skipped");
  EXPECT_STREQ(verify::certify_mode_name(verify::CertifyMode::kAnswer),
               "answer");
}

}  // namespace
}  // namespace dmpc
