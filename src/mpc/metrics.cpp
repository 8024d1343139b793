#include "mpc/metrics.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics_registry.hpp"

namespace dmpc::mpc {

void Metrics::charge(const std::string& label, std::uint64_t rounds,
                     std::uint64_t words) {
  rounds_ += rounds;
  communication_ += words;
  if (label.empty()) return;
  LabelCost& row = by_label_[label];
  row.rounds += rounds;
  row.communication += words;
}

void Metrics::observe_load(std::uint64_t words, const std::string& label) {
  peak_load_ = std::max(peak_load_, words);
  if (label.empty()) return;
  LabelCost& row = by_label_[label];
  row.peak_load = std::max(row.peak_load, words);
}

void Metrics::export_to(obs::MetricsRegistry& registry) const {
  const auto section = obs::MetricSection::kModel;
  registry.counter("mpc/rounds", section).add(rounds_);
  registry.counter("mpc/communication", section).add(communication_);
  registry.counter("mpc/peak_load", section).add(peak_load_);
  const std::pair<const char*, std::uint64_t LabelCost::*> columns[] = {
      {"mpc/rounds", &LabelCost::rounds},
      {"mpc/communication", &LabelCost::communication},
      {"mpc/peak_load", &LabelCost::peak_load}};
  for (const auto& [name, cell] : columns) {
    for (const auto& [label, cost] : by_label_) {
      if (cost.*cell != 0) registry.counter(name, label, section).add(cost.*cell);
    }
  }
}

}  // namespace dmpc::mpc
