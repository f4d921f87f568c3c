// Wash-time estimation for contamination removal.
//
// Washing a component or flow channel is performed by injecting buffer flow.
// Per Section II-B of the paper, wash time is dominated by the contaminant's
// diffusion coefficient; channel length/width and buffer pressure are
// second-order and ignored. We anchor a log-linear model on the two data
// points the paper quotes:
//
//   D = 1e-5  cm^2/s  ->  0.2 s   (small molecules, e.g. lysis buffer)
//   D = 5e-8  cm^2/s  ->  6.0 s   (cells, e.g. tobacco mosaic virus)
//
// and interpolate linearly in log10(D) between them, clamping outside the
// anchored range. Benchmarks may also pin exact wash times per fluid (the
// paper's worked examples in Figs. 2/3/5 use integer seconds); overrides are
// keyed by diffusion coefficient.

#pragma once

#include <array>
#include <map>
#include <optional>

#include "biochip/fluid.hpp"

namespace fbmb {

/// Maps a contaminant's diffusion coefficient to the wash time (seconds)
/// needed to clean a component or channel segment it has touched.
class WashModel {
 public:
  /// Model anchored on the paper's two reference points.
  WashModel() = default;

  /// Model with custom anchors: wash(d_fast) = t_fast, wash(d_slow) = t_slow.
  /// Preconditions: d_fast > d_slow > 0, t_slow >= t_fast >= 0.
  WashModel(double d_fast, double t_fast, double d_slow, double t_slow);

  /// Wash time in seconds for a contaminant with diffusion coefficient `d`.
  /// Precondition: d > 0. Checks overrides first, then the log-linear fit.
  double wash_time(double d) const;

  double wash_time(const Fluid& fluid) const {
    return wash_time(fluid.diffusion_coefficient);
  }

  /// Pins the wash time for a specific diffusion coefficient. Benchmarks use
  /// this to reproduce the paper's integer-second examples exactly.
  void set_override(double d, double seconds);

  std::size_t override_count() const { return overrides_.size(); }

  /// Inverse query: diffusion coefficient whose modeled (non-override) wash
  /// time equals `seconds`, clamped to the anchored range. Useful when a
  /// benchmark is specified by wash times rather than coefficients.
  double diffusion_for_wash_time(double seconds) const;

  /// Model anchors in (d_fast, t_fast, d_slow, t_slow) order and the pinned
  /// per-coefficient overrides. Exposed so callers can fingerprint a model
  /// (runtime result cache) or serialize it; not needed for wash queries.
  std::array<double, 4> anchors() const {
    return {d_fast_, t_fast_, d_slow_, t_slow_};
  }
  const std::map<double, double>& overrides() const { return overrides_; }

 private:
  double d_fast_ = 1e-5;   // high-D anchor
  double t_fast_ = 0.2;    // its wash time
  double d_slow_ = 5e-8;   // low-D anchor
  double t_slow_ = 6.0;    // its wash time
  std::map<double, double> overrides_;
};

}  // namespace fbmb
