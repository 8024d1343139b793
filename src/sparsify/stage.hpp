// One sparsification stage, shared by §3.2 (edges) and §4.2 (nodes).
//
// Stage j keeps the ids x of E_{j-1} (or Q_{j-1}) whose c-wise hash h(x) lies
// below cutoff = q * p, q = n^{-delta}. Its seed must make every per-owner
// window and one global window good. Windows start at kWindowSlack times the
// binomial width and double while no seed in the budget fits (the finite-n
// adaptation of DESIGN.md §2.0); the committed seed is good for the window
// actually used, which is what the Lemma 10/11 and 17/18 algebra consumes.
// run_stages is the stage loop both sparsifiers run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "hash/kwise.hpp"
#include "mpc/cluster.hpp"
#include "mpc/distribution.hpp"
#include "obs/trace.hpp"
#include "sparsify/params.hpp"
#include "support/check.hpp"
#include "support/default_init.hpp"

namespace dmpc::sparsify {

/// At most kMaxEscalations window doublings of kTrialsPerWindow seeds each;
/// at most kExtraStageCap extra stages while degrees exceed the cap.
inline constexpr double kWindowSlack = 3.0;
inline constexpr std::uint32_t kMaxEscalations = 16;
inline constexpr std::uint64_t kTrialsPerWindow = 64;
inline constexpr std::uint32_t kExtraStageCap = 16;
/// Owners per host task of the per-owner passes.
inline constexpr std::uint64_t kOwnerGrain = 256;

struct SparsifyConfig {
  unsigned hash_k = 4;  ///< Independence degree c.
};

struct StageReport {
  std::uint32_t stage = 0;           ///< 1-based stage index j.
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;          ///< Seeds evaluated in this stage.
  double window_multiplier = 1.0;    ///< Final slack multiplier used.
  std::uint64_t machines = 0;        ///< Windows checked for goodness.
  std::uint64_t items_before = 0;    ///< Sampled items (edges or nodes) in.
  std::uint64_t items_after = 0;     ///< Sampled items kept.
  std::uint32_t max_degree_after = 0;
  /// Measured invariant (i) head-room: max_v d_j(v) /
  /// (n^{-j delta} d_0(v) + n^{3 delta}).
  double invariant_degree_ratio = 0.0;
  /// Measured invariant (ii): the worst kept fraction of a lower-bounded
  /// list (X(v) for edges, the 1/d mass for nodes) over its expectation.
  double invariant_xv_ratio = 0.0;
};

/// The worst invariant measurements across one iteration's stages. The
/// defaults are what an iteration without stages reports.
struct StageInvariants {
  double degree_ratio = 0.0;       ///< Max of invariant_degree_ratio.
  double xv_ratio = 2.0;           ///< Min of invariant_xv_ratio.
  double window_multiplier = 0.0;  ///< Max of window_multiplier.
};

StageInvariants worst_invariants(const std::vector<StageReport>& stages);

/// Which bound a window enforces on its kept count: kUpper (Lemmas 10, 17),
/// kLower (Lemma 11), kBoth (the global window, which rejects the
/// degenerate all-keep / all-drop seeds); kMass bounds the kept weight from
/// below (Lemma 18).
enum class Side { kUpper, kLower, kBoth, kMass };

/// One owner's window over the slots [begin, end) of its WindowSet. The
/// owner total is one Lemma-4 aggregation away, so checking per owner costs
/// the same O(1) rounds as per machine.
struct Window {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  Side side = Side::kUpper;
  std::uint64_t lo = 0;   ///< Kept-count bounds (count sides).
  std::uint64_t hi = 0;
  double mass_lo = 0.0;   ///< Kept-mass lower bound (kMass).
  std::uint64_t count() const { return end - begin; }
};

/// A stage's windows over the ids of its mask. Each id is a hash input
/// once, in `ids`; windows hold 32-bit slots into that table, so a seed
/// hashes |ids| points however many windows share an id (the §4.2 sums are
/// per-node sums over neighbours, where every id sits in many windows).
/// build_windows makes one.
struct WindowSet {
  std::vector<std::uint64_t> ids;    ///< The mask's set ids, ascending.
  /// Ranks into ids, window after window. build_windows' parallel fill is
  /// the first write to every slot.
  DefaultInitVector<std::uint32_t> slots;
  /// kMass windows weigh the id in slot s by weight[s].
  std::vector<double> weight;
  std::vector<Window> windows;
};

class IdSink;

/// One group of per-owner windows: every owner v in [0, owners) gets a
/// window on `side` over the ids that ids(v, sink) passes to the sink, in
/// that order; an owner that passes none (one outside the group's owner
/// set) gets no window. The enumerator runs twice per owner, on pool
/// threads, and must pass the same ids both times.
struct WindowSource {
  std::uint64_t owners = 0;
  Side side = Side::kUpper;
  std::function<void(std::uint64_t owner, IdSink& sink)> ids;
};

/// The global window: every id set in `mask`, in id order, kBoth. At finite
/// n the per-owner windows can all be trivially wide (counts of a few dozen
/// admit no non-trivial satisfiable window), so without it the degenerate
/// all-keep / all-drop polynomials would count as good; it rejects them and
/// guarantees per-stage progress at one Lemma-4 aggregation. `mask` must
/// outlive the source.
WindowSource global_window(const std::vector<bool>& mask);

/// Build a stage's windows over the ids set in `mask`: each source's
/// windows in turn, owner by owner, dropping the windows with no ids. Pass 1
/// counts every owner's ids on the executor; a serial prefix sum over the
/// counts places the windows; pass 2 fills one exactly sized `slots` array
/// on the executor. `weight` is left to the caller. The set is identical
/// for every executor. An id outside the mask fails a check.
WindowSet build_windows(const exec::Executor& executor,
                        const std::vector<bool>& mask,
                        const std::vector<WindowSource>& sources);

/// Where a WindowSource's enumerator puts one owner's ids: build_windows'
/// first pass counts them, its second stores their slots.
class IdSink {
 public:
  void operator()(std::uint64_t id) {
    if (out_ != nullptr) {
      DMPC_CHECK(count_ < room_ && id < universe_ && slot_of_[id] != kNoSlot);
      out_[count_] = slot_of_[id];
    }
    ++count_;
  }

 private:
  friend WindowSet build_windows(const exec::Executor&,
                                 const std::vector<bool>&,
                                 const std::vector<WindowSource>&);
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  IdSink() = default;
  IdSink(const std::vector<std::uint32_t>& slot_of, std::uint32_t* out,
         std::uint64_t room)
      : slot_of_(slot_of.data()),
        universe_(slot_of.size()),
        out_(out),
        room_(room) {}

  const std::uint32_t* slot_of_ = nullptr;  ///< Id -> slot; kNoSlot off the mask.
  std::uint64_t universe_ = 0;
  std::uint32_t* out_ = nullptr;  ///< Null while counting.
  std::uint64_t room_ = 0;
  std::uint64_t count_ = 0;
};

/// The window-bound rule at slack multiplier `mult`. Count windows get
/// mean ± mult * (sqrt(count q (1-q)) + 1), clipped to [0, count] and to
/// the window's side: the binomial scale, which bites at finite n where the
/// paper's n^{0.1 delta} sqrt(e_x) would not (DESIGN.md). kMass windows get
/// max(0, q M - mult * (sqrt(q (1-q) sum w^2) + max w)).
void set_bounds(Window& w, const WindowSet& set, double q, double mult);

/// A stage's sampling hash over ids [0, count): the c-wise family, the rate
/// q and the cutoff q * p below which an id is kept.
struct StageHash {
  StageHash(std::uint64_t count, double q, unsigned hash_k);
  hash::KWiseFamily family;
  double q;
  std::uint64_t cutoff;
};

/// The escalating seed search: bounds every window at kWindowSlack, seeks a
/// seed making all of them good (search label `<prefix>/seed`) and doubles
/// the multiplier after each miss (trace instant `<prefix>/escalate`).
/// Returns the report's stage, seed, trials, window_multiplier, machines.
StageReport find_stage_seed(mpc::Cluster& cluster, const StageHash& stage_hash,
                            std::uint32_t stage, WindowSet& set,
                            const std::string& prefix);

/// Keep id x of `mask` iff the report's seed hashes it below the cutoff,
/// and fill items_before / items_after. When no id would stay, leave `mask`
/// untouched and return false: the caller stops early, and the selection
/// step's space check remains the arbiter.
bool apply_stage_hash(const StageHash& stage_hash, std::vector<bool>& mask,
                      StageReport& report, const std::string& prefix);

/// One stage's Lemma 10/11 (edges) or 17/18 (nodes) measurements, folded
/// over owners: the largest degree ratio (invariant (i)), the smallest
/// lower-list ratio (invariant (ii)) and the largest degree. The defaults
/// are the fold's identity and what an owner with nothing to measure gives.
struct StageMeasurement {
  double degree_ratio = 0.0;
  double lower_ratio = 2.0;
  std::uint32_t max_degree = 0;
};

/// The stage loop of §3.2 and §4.2. Sub-samples `mask` (E_0 or Q_0 on
/// entry, E* or Q' on return) and returns the stage reports. It runs the
/// class's planned stages, then at most kExtraStageCap extra ones while
/// `max_degree` (the baseline on entry, each stage's measured maximum
/// after) exceeds the degree cap, and stops early when a stage would empty
/// the sample. Each stage is one `<prefix>/stage` phase: build the
/// sparsifier's windows plus the global one, charge their distribution to
/// `<prefix>/distribute`, derandomize the seed, apply it, and fold the
/// per-owner measurements in one pass over the executor.
///
/// `Sparsifier` supplies what the two sides differ in:
///   static constexpr const char* kPrefix;   // label prefix
///   static constexpr std::uint64_t kArity;  // words per distributed item
///   std::uint64_t owners() const;           // owners measured
///   std::vector<WindowSource> sources(const std::vector<bool>& mask) const;
///   const std::vector<double>* id_weight() const;  // kMass weight by id
///   StageMeasurement measure(std::uint64_t owner,
///                            const std::vector<bool>& mask,
///                            double shrink) const;
///   void item_args(obs::Span& span, const StageReport& report) const;
/// `id_weight` is null when no window is kMass. `measure` sees the mask
/// after the stage's update and shrink = q^j; it runs on pool threads and
/// writes only its owner's own entries, so the reports are identical for
/// every executor.
template <typename Sparsifier>
std::vector<StageReport> run_stages(mpc::Cluster& cluster, const Params& params,
                                    std::uint32_t cls,
                                    const SparsifyConfig& config,
                                    const Sparsifier& sparsifier,
                                    std::vector<bool>& mask,
                                    std::uint32_t& max_degree) {
  const std::string prefix = Sparsifier::kPrefix;
  const std::uint32_t planned = params.stages_for_class(cls);
  const double q = params.sample_probability();
  const StageHash stage_hash(mask.size(), q, config.hash_k);
  std::vector<StageReport> reports;
  std::uint32_t extra_used = 0;
  for (std::uint32_t stage = 1;; ++stage) {
    if (stage > planned) {
      // §3.3 and §4.3 require degrees <= 2 n^{4 delta}; at finite n the
      // window slack can leave an overshoot, fixed by extra stages.
      if (max_degree <= params.degree_cap() || extra_used >= kExtraStageCap) {
        break;
      }
      ++extra_used;
    }
    // Each stage rewrites the survivor set from the previous one, so it is a
    // recovery-safe boundary for phase-granularity checkpoints.
    obs::Span span = cluster.mark_phase(prefix + "/stage", mask.size());
    span.arg("stage", static_cast<std::uint64_t>(stage));

    std::vector<WindowSource> sources = sparsifier.sources(mask);
    sources.push_back(global_window(mask));
    WindowSet set = build_windows(cluster.executor(), mask, sources);
    if (const std::vector<double>* weight = sparsifier.id_weight()) {
      set.weight.reserve(set.ids.size());
      for (const std::uint64_t x : set.ids) set.weight.push_back((*weight)[x]);
    }
    // The kUpper windows (type A, type Q) hold every owner's list once.
    std::uint64_t items = 0;
    for (const Window& w : set.windows) {
      if (w.side == Side::kUpper) items += w.count();
    }
    mpc::charge_group_distribution(cluster, items, params.group_size(),
                                   Sparsifier::kArity, prefix + "/distribute");

    StageReport report =
        find_stage_seed(cluster, stage_hash, stage, set, prefix);
    if (!apply_stage_hash(stage_hash, mask, report, prefix)) break;

    const double shrink = std::pow(q, static_cast<double>(stage));
    const StageMeasurement measured = cluster.executor().map_reduce(
        0, sparsifier.owners(), StageMeasurement{},
        [&](std::uint64_t owner) {
          return sparsifier.measure(owner, mask, shrink);
        },
        [](const StageMeasurement& a, const StageMeasurement& b) {
          return StageMeasurement{std::max(a.degree_ratio, b.degree_ratio),
                                  std::min(a.lower_ratio, b.lower_ratio),
                                  std::max(a.max_degree, b.max_degree)};
        },
        kOwnerGrain);
    report.max_degree_after = measured.max_degree;
    report.invariant_degree_ratio = measured.degree_ratio;
    report.invariant_xv_ratio = measured.lower_ratio;
    max_degree = measured.max_degree;
    if (span.active()) {
      span.arg("candidate_seeds", report.trials);
      span.arg("committed_seed", report.seed);
      sparsifier.item_args(span, report);
      span.arg("window_multiplier", report.window_multiplier);
    }
    reports.push_back(report);
  }
  return reports;
}

}  // namespace dmpc::sparsify
