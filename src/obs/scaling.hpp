// Theorem-envelope fits for measured scaling series.
//
// Every headline bound reproduced here is a scaling law — Theorem 1 rounds
// are O(log n), the low-degree regime (Theorem 7) is O(log Δ + log log n),
// and peak machine load is capped by S = n^eps. This module turns a measured
// (x, y) series into a pass/fail verdict against such an envelope for
// `tools/scaling_check`, the CI regression gate over the BENCH_*.json
// artifacts that `bench/bench_runner` writes.
//
// Method: least-squares fit y = intercept + slope * f(x) with f = log2 or
// log2∘log2, then require every point to sit within a relative residual
// `slack` of the fitted line. A series growing polynomially in x bends away
// from any logarithmic fit, so its worst residual blows past the slack on a
// doubling sweep; a conforming series fits with small residuals. The fit
// parameters are reported so regressions can also be judged against a
// baseline's slope.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dmpc::obs {

/// One measured point of a scaling series.
struct SeriesPoint {
  double x = 0;  ///< sweep axis value (n, Delta, ...)
  double y = 0;  ///< measured quantity (rounds, iterations, ...)
};

/// Shape of the theorem envelope being checked.
enum class EnvelopeKind {
  kLogX,     ///< y <= a * log2(x) + b          (Theorem 1 / Corollary 2)
  kLogLogX,  ///< y <= a * log2(log2(x)) + b    (log log n term, Theorem 7)
};

/// Verdict + fitted parameters for one series.
struct EnvelopeFit {
  bool pass = false;
  double intercept = 0;
  double slope = 0;
  double r_squared = 0;
  /// max over points of |y - fit(x)| / max(1, |fit(x)|).
  double max_rel_residual = 0;
  /// Index of the worst point (into the input series).
  std::size_t worst_index = 0;
  /// Human-readable explanation when pass == false, empty otherwise.
  std::string detail;
};

/// Fit the series against `kind` and require every residual within `slack`
/// (relative). Needs >= 2 points with distinct transformed x; fewer points
/// pass trivially with a note in `detail`.
EnvelopeFit check_envelope(const std::vector<SeriesPoint>& series,
                           EnvelopeKind kind, double slack);

/// Per-point hard cap (peak load <= machine space): fails on the first
/// index with y > cap. `series[i].x` is echoed in the failure detail.
EnvelopeFit check_cap(const std::vector<SeriesPoint>& series,
                      const std::vector<double>& caps);

}  // namespace dmpc::obs
