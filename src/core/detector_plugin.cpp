#include "core/detector_plugin.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fdeta::core {

namespace {

// Floor of the over-threshold segment fraction.  Large enough that
// (1 - sig) + sig * kMinOverThreshold still rounds strictly above 1 - sig in
// IEEE doubles for any significance >= 1e-6 (the flag-preservation
// invariant), small enough to be invisible on the calibrated scale.
constexpr double kMinOverThreshold = 1e-9;

void validate_significance(double significance) {
  require(significance > 0.0 && significance < 1.0,
          "ScoreCalibration: significance must be in (0,1)");
}

}  // namespace

ScoreCalibration ScoreCalibration::from_reference(std::vector<double> reference,
                                                  double raw_threshold,
                                                  double significance) {
  validate_significance(significance);
  require(!reference.empty(), "ScoreCalibration: empty reference sample");
  std::sort(reference.begin(), reference.end());
  ScoreCalibration out;
  out.reference_ = std::move(reference);
  out.raw_threshold_ = raw_threshold;
  out.significance_ = significance;
  out.threshold_position_ = out.position(raw_threshold);
  out.fitted_ = true;
  return out;
}

double ScoreCalibration::position(double x) const {
  const std::vector<double>& r = reference_;
  if (x <= r.front()) return 0.0;
  if (x >= r.back()) return 1.0;
  // r.front() < x < r.back(), so n >= 2 and a bracketing pair with spread
  // exists: r[j] <= x < r[j + 1] with r[j] < r[j + 1].
  const auto it = std::upper_bound(r.begin(), r.end(), x);
  const std::size_t j = static_cast<std::size_t>(it - r.begin()) - 1;
  const double frac = (x - r[j]) / (r[j + 1] - r[j]);
  return (static_cast<double>(j) + frac) / static_cast<double>(r.size() - 1);
}

double ScoreCalibration::calibrate(double raw) const {
  require(fitted_, "ScoreCalibration: not fitted (fit() not called?)");
  if (std::isnan(raw)) return raw;
  const double base = 1.0 - significance_;  // the uniform decision threshold

  if (raw > raw_threshold_) {
    // Over-threshold segment: (1 - sig, 1].  The fraction is the raw score's
    // reference position beyond the threshold's; the floor keeps the result
    // strictly above the decision threshold (flag preservation).
    double frac;
    if (threshold_position_ >= 1.0) {
      frac = 1.0;  // threshold at/above the reference max: any excess is "1"
    } else {
      frac = (position(raw) - threshold_position_) /
             (1.0 - threshold_position_);
    }
    frac = std::min(1.0, std::max(frac, kMinOverThreshold));
    return std::min(1.0, base + significance_ * frac);
  }

  // At-or-under segment: [0, 1 - sig], hitting 1 - sig exactly at the raw
  // threshold.  Multiplying by base <= 1 cannot round above base, so the
  // result never crosses the decision threshold.
  if (threshold_position_ <= 0.0) return 0.0;
  return base * std::min(1.0, position(raw) / threshold_position_);
}

KldExplanation ScoringDetector::explain_week(std::span<const Kw> week,
                                             SlotIndex first_slot) const {
  KldExplanation out = raw_explain_week(week, first_slot);
  out.raw_score = out.score;
  out.raw_threshold = out.threshold;
  out.score = calibration_.calibrate(out.raw_score);
  out.threshold = calibration_.decision_threshold();
  return out;
}

}  // namespace fdeta::core
