#include "eval/cusum_detector.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fdeta::core {

namespace {

/// Standardised residual of a reading against the weekly profile; slots with
/// zero variance contribute zero.
double zscore(const ts::WeeklyProfile& profile, std::size_t slot, Kw value) {
  return profile.zscore(slot % kSlotsPerWeek, value);
}

}  // namespace

// --- CUSUM -----------------------------------------------------------------

CusumDetector::CusumDetector(CusumDetectorConfig config) : config_(config) {
  require(config_.drift_k >= 0.0, "CusumDetector: negative drift");
  require(config_.threshold_h > 0.0, "CusumDetector: threshold must be > 0");
}

double CusumDetector::peak_statistic(std::span<const Kw> week) const {
  require(profile_.has_value(), "CusumDetector: fit() not called");
  double s_hi = 0.0, s_lo = 0.0, peak = 0.0;
  for (std::size_t t = 0; t < week.size(); ++t) {
    const double z = zscore(*profile_, t, week[t]);
    s_hi = std::max(0.0, s_hi + z - config_.drift_k);
    s_lo = std::max(0.0, s_lo - z - config_.drift_k);
    peak = std::max({peak, s_hi, s_lo});
  }
  return peak;
}

void CusumDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "CusumDetector: training must be whole weeks");
  require(training.size() >= 4 * kSlotsPerWeek,
          "CusumDetector: need at least four training weeks");
  profile_.emplace(training, kSlotsPerWeek);

  // Calibrate h above the worst honest training week (which includes the
  // natural anomalies of Section VIII-A).
  double worst = 0.0;
  for (std::size_t w = 0; w * kSlotsPerWeek < training.size(); ++w) {
    const std::span<const Kw> week{training.data() + w * kSlotsPerWeek,
                                   static_cast<std::size_t>(kSlotsPerWeek)};
    worst = std::max(worst, peak_statistic(week));
  }
  calibrated_h_ =
      std::max(config_.threshold_h, worst * config_.threshold_slack);
}

bool CusumDetector::flag_week(std::span<const Kw> week,
                              SlotIndex /*first_slot*/) const {
  return peak_statistic(week) > calibrated_h_;
}

// --- EWMA --------------------------------------------------------------------

EwmaDetector::EwmaDetector(EwmaDetectorConfig config) : config_(config) {
  require(config_.lambda > 0.0 && config_.lambda <= 1.0,
          "EwmaDetector: lambda must be in (0,1]");
  require(config_.limit_l > 0.0, "EwmaDetector: limit must be > 0");
}

double EwmaDetector::peak_statistic(std::span<const Kw> week) const {
  require(profile_.has_value(), "EwmaDetector: fit() not called");
  // Asymptotic EWMA sigma for unit-variance residuals.
  const double sigma_ewma =
      std::sqrt(config_.lambda / (2.0 - config_.lambda));
  double ewma = 0.0, peak = 0.0;
  for (std::size_t t = 0; t < week.size(); ++t) {
    const double z = zscore(*profile_, t, week[t]);
    ewma = config_.lambda * z + (1.0 - config_.lambda) * ewma;
    peak = std::max(peak, std::fabs(ewma) / sigma_ewma);
  }
  return peak;
}

void EwmaDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "EwmaDetector: training must be whole weeks");
  require(training.size() >= 4 * kSlotsPerWeek,
          "EwmaDetector: need at least four training weeks");
  profile_.emplace(training, kSlotsPerWeek);

  double worst = 0.0;
  for (std::size_t w = 0; w * kSlotsPerWeek < training.size(); ++w) {
    const std::span<const Kw> week{training.data() + w * kSlotsPerWeek,
                                   static_cast<std::size_t>(kSlotsPerWeek)};
    worst = std::max(worst, peak_statistic(week));
  }
  calibrated_l_ = std::max(config_.limit_l, worst * config_.limit_slack);
}

bool EwmaDetector::flag_week(std::span<const Kw> week,
                             SlotIndex /*first_slot*/) const {
  return peak_statistic(week) > calibrated_l_;
}

}  // namespace fdeta::core
