#include "sparsify/stage.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "derand/seed_search.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"

namespace dmpc::sparsify {

namespace {

// The number of good windows under a seed. Each candidate costs one
// PowerTable sweep over the distinct ids and a hash-free window scan that
// reads each entry's value through its slot; masses accumulate in window
// order. Escalation rewrites the bounds in place, read through the pointer,
// without rebuilding the table.
class StageObjective final : public derand::RangeObjective {
 public:
  /// Windows per host task of the early-reject scan and the bound update.
  static constexpr std::uint64_t kScanGrain = 512;

  StageObjective(const StageHash& stage_hash, const WindowSet& set)
      : cutoff_(stage_hash.cutoff), set_(&set) {
    bind_points(stage_hash.family, set.ids.data(), set.ids.size());
  }

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t /*seed*/,
                          const std::uint64_t* values) const override {
    std::uint64_t good = 0;
    for (std::uint64_t o = range_begin; o < range_end; ++o) {
      good += is_good(set_->windows[o], values);
    }
    return static_cast<double>(good);
  }

  // The stage search asks for every window at once (threshold = the window
  // count), so one failing window decides a seed: sweep on the calling
  // thread, then scan the windows in kScanGrain chunks over the executor
  // for the lowest failing one and stop there. When none fails the value
  // is exactly the window count, what evaluate(seed) would count. Any other
  // threshold takes the full count.
  std::optional<double> evaluate_if_at_least(
      const exec::Executor& executor, std::uint64_t seed,
      double threshold) const override {
    const std::uint64_t windows = range_count();
    const double all = static_cast<double>(windows);
    if (threshold != all) {
      return Objective::evaluate_if_at_least(executor, seed, threshold);
    }
    const std::uint64_t* values = sweep(seed);
    const std::uint64_t bad = executor.find_first(
        0, windows,
        [&](std::uint64_t o) { return !is_good(set_->windows[o], values); },
        kScanGrain);
    if (bad < windows) return std::nullopt;
    return all;
  }

  std::uint64_t range_count() const override { return set_->windows.size(); }
  std::uint64_t term_count() const override { return set_->windows.size(); }

 private:
  bool is_good(const Window& w, const std::uint64_t* values) const {
    if (w.side == Side::kMass) {
      double mass = 0.0;
      for (std::uint64_t i = w.begin; i < w.end; ++i) {
        const std::uint32_t s = set_->slots[i];
        if (values[s] < cutoff_) mass += set_->weight[s];
      }
      return mass >= w.mass_lo;
    }
    std::uint64_t kept = 0;
    for (std::uint64_t i = w.begin; i < w.end; ++i) {
      if (values[set_->slots[i]] < cutoff_) ++kept;
    }
    return kept >= w.lo && kept <= w.hi;
  }

  std::uint64_t cutoff_;
  const WindowSet* set_;
};

/// Windows per host task of build_windows' filling pass.
constexpr std::uint64_t kFillGrain = 64;

}  // namespace

StageInvariants worst_invariants(const std::vector<StageReport>& stages) {
  StageInvariants worst;
  for (const StageReport& s : stages) {
    worst.degree_ratio = std::max(worst.degree_ratio, s.invariant_degree_ratio);
    worst.xv_ratio = std::min(worst.xv_ratio, s.invariant_xv_ratio);
    worst.window_multiplier =
        std::max(worst.window_multiplier, s.window_multiplier);
  }
  return worst;
}

WindowSource global_window(const std::vector<bool>& mask) {
  return {1, Side::kBoth, [&mask](std::uint64_t, IdSink& sink) {
            for (std::uint64_t x = 0; x < mask.size(); ++x) {
              if (mask[x]) sink(x);
            }
          }};
}

WindowSet build_windows(const exec::Executor& executor,
                        const std::vector<bool>& mask,
                        const std::vector<WindowSource>& sources) {
  WindowSet set;
  std::vector<std::uint32_t> slot_of(mask.size(), IdSink::kNoSlot);
  for (std::uint64_t x = 0; x < mask.size(); ++x) {
    if (!mask[x]) continue;
    DMPC_CHECK(set.ids.size() < IdSink::kNoSlot);
    slot_of[x] = static_cast<std::uint32_t>(set.ids.size());
    set.ids.push_back(x);
  }
  // Pass 1 counts each owner's ids; the serial prefix sum over the counts
  // places the windows owner by owner, source after source, and records
  // which (source, owner) fills each one.
  struct Origin {
    std::size_t source;
    std::uint64_t owner;
  };
  std::vector<Origin> origins;
  std::uint64_t total = 0;
  auto place = [&](std::size_t source, std::uint64_t owner,
                   std::uint64_t count) {
    if (count == 0) return;
    set.windows.push_back({total, total + count, sources[source].side});
    origins.push_back({source, owner});
    total += count;
  };
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const WindowSource& source = sources[s];
    std::vector<std::uint64_t> counts(source.owners, 0);
    executor.for_each(
        0, source.owners,
        [&](std::uint64_t v) {
          IdSink sink;
          source.ids(v, sink);
          counts[v] = sink.count_;
        },
        kOwnerGrain);
    for (std::uint64_t v = 0; v < source.owners; ++v) place(s, v, counts[v]);
  }
  // Pass 2 fills each window's slots in place; resize leaves them unwritten,
  // so the pool's fill is their first touch.
  set.slots.resize(total);
  executor.for_each(
      0, set.windows.size(),
      [&](std::uint64_t w) {
        const Window& window = set.windows[w];
        IdSink sink(slot_of, set.slots.data() + window.begin, window.count());
        sources[origins[w].source].ids(origins[w].owner, sink);
        DMPC_CHECK(sink.count_ == window.count());
      },
      kFillGrain);
  return set;
}

void set_bounds(Window& w, const WindowSet& set, double q, double mult) {
  if (w.side == Side::kMass) {
    double mass = 0.0, sq = 0.0, wmax = 0.0;
    for (std::uint64_t i = w.begin; i < w.end; ++i) {
      const double weight = set.weight[set.slots[i]];
      mass += weight;
      sq += weight * weight;
      wmax = std::max(wmax, weight);
    }
    const double slack = mult * (std::sqrt(q * (1.0 - q) * sq) + wmax);
    w.mass_lo = std::max(0.0, q * mass - slack);
    return;
  }
  const double count = static_cast<double>(w.count());
  const double mean = q * count;
  const double slack = mult * (std::sqrt(count * q * (1.0 - q)) + 1.0);
  w.hi = w.side == Side::kLower
             ? w.count()
             : static_cast<std::uint64_t>(
                   std::min<double>(count, std::ceil(mean + slack)));
  const double lo_real = mean - slack;
  w.lo = w.side == Side::kUpper || lo_real <= 0
             ? 0
             : static_cast<std::uint64_t>(std::floor(lo_real));
}

StageHash::StageHash(std::uint64_t count, double q, unsigned hash_k)
    : family(std::max<std::uint64_t>(2, count),
             std::max<std::uint64_t>(2, count), hash_k),
      q(q),
      cutoff(static_cast<std::uint64_t>(q * static_cast<double>(family.p()))) {}

StageReport find_stage_seed(mpc::Cluster& cluster, const StageHash& stage_hash,
                            std::uint32_t stage, WindowSet& set,
                            const std::string& prefix) {
  StageReport report;
  report.stage = stage;
  report.machines = set.windows.size();
  const StageObjective objective(stage_hash, set);
  double mult = kWindowSlack;
  for (std::uint32_t attempt = 0;; ++attempt) {
    DMPC_CHECK_MSG(attempt <= kMaxEscalations,
                   prefix << ": window escalation cap reached");
    if (attempt > 0) mult *= 2.0;
    cluster.executor().for_each(
        0, set.windows.size(),
        [&](std::uint64_t w) {
          set_bounds(set.windows[w], set, stage_hash.q, mult);
        },
        StageObjective::kScanGrain);
    derand::SearchOptions opts;
    opts.threshold = static_cast<double>(set.windows.size());
    opts.max_trials = kTrialsPerWindow;
    opts.label = prefix + "/seed";
    // Decorrelate committed functions across stages: the scrambled walk of
    // salt stage + 1 (see derand::SeedWalk).
    opts.seed_base = derand::SeedWalk::kSaltStep * (stage + 1);
    opts.seed_stride = derand::SeedWalk::kStride;
    const auto found = derand::try_find_seed(
        cluster, objective, stage_hash.family.seed_count(), opts);
    report.trials += found ? found->trials : kTrialsPerWindow;
    if (found) {
      report.seed = found->seed;
      report.window_multiplier = mult;
      return report;
    }
    if (auto* trace = cluster.trace(); obs::enabled(trace)) {
      trace->instant(prefix + "/escalate",
                     {obs::arg("stage", static_cast<std::uint64_t>(stage)),
                      obs::arg("window_multiplier", mult * 2.0)});
    }
    DMPC_DEBUG(prefix << " stage " << stage << ": escalating window to x"
                      << mult * 2.0);
  }
}

bool apply_stage_hash(const StageHash& stage_hash, std::vector<bool>& mask,
                      StageReport& report, const std::string& prefix) {
  const auto fn = stage_hash.family.at(report.seed);
  std::vector<bool> next(mask.size(), false);
  report.items_before = report.items_after = 0;
  for (std::uint64_t x = 0; x < mask.size(); ++x) {
    if (!mask[x]) continue;
    ++report.items_before;
    next[x] = fn.raw(x) < stage_hash.cutoff;
    report.items_after += next[x];
  }
  if (report.items_after == 0) {
    DMPC_WARN(prefix << " stage " << report.stage
                     << " would empty the sample; stopping early");
    return false;
  }
  mask = std::move(next);
  return true;
}

}  // namespace dmpc::sparsify
