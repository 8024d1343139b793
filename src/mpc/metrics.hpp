// Execution metrics for the MPC cost model.
//
// The theorems under reproduction bound exactly three quantities: the number
// of synchronous rounds, the peak per-machine space (S words), and the total
// space/communication. Every simulator primitive charges these here, and the
// benchmarks report them — this is the measured side of EXPERIMENTS.md.
//
// All three quantities are attributed per label (the primitive/phase names
// the call sites pass) in one ledger row per label, so a run can be audited
// stage by stage: the sparsify -> gather -> derand -> commit decomposition in
// a report sums back to the global totals. An empty label charges the totals
// only.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dmpc::obs {
class MetricsRegistry;
}

namespace dmpc::mpc {

/// One ledger row: everything charged under one label.
struct LabelCost {
  std::uint64_t rounds = 0;
  std::uint64_t communication = 0;
  std::uint64_t peak_load = 0;

  bool operator==(const LabelCost&) const = default;
};

class Metrics {
 public:
  Metrics() = default;
  /// A ledger for a cluster of `machine_space` words per machine.
  explicit Metrics(std::uint64_t machine_space)
      : machine_space_(machine_space) {}

  /// Charge `rounds` synchronous rounds and `words` words of cross-machine
  /// traffic attributed to `label`.
  void charge(const std::string& label, std::uint64_t rounds,
              std::uint64_t words);

  /// Record that some machine held `words` words at some instant; a
  /// non-empty `label` also tracks the per-label peak.
  void observe_load(std::uint64_t words, const std::string& label = "");

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t peak_machine_load() const { return peak_load_; }
  std::uint64_t total_communication() const { return communication_; }
  /// S of the cluster that charged this ledger (0 when no cluster did).
  /// Not part of any serialized surface; the space claim judges against it.
  std::uint64_t machine_space() const { return machine_space_; }
  /// The per-label ledger. Renderers list nonzero cells only.
  const std::map<std::string, LabelCost>& by_label() const { return by_label_; }

  /// Export this run's totals into the model section of `registry` as
  /// counters "mpc/rounds", "mpc/communication", "mpc/peak_load" plus the
  /// per-label families "mpc/<quantity>/<label>". Each call *adds* this
  /// object's values (peaks included — a solve exports once into its own
  /// registry, so a peak exported as an addend reads back as exactly this
  /// run's peak).
  void export_to(obs::MetricsRegistry& registry) const;

 private:
  std::uint64_t machine_space_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t peak_load_ = 0;
  std::uint64_t communication_ = 0;
  std::map<std::string, LabelCost> by_label_;
};

}  // namespace dmpc::mpc
