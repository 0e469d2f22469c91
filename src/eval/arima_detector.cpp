#include "eval/arima_detector.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fdeta::core {

ArimaDetector::ArimaDetector(ArimaDetectorConfig config) : config_(config) {
  require(config_.z > 0.0, "ArimaDetector: z must be positive");
  require(config_.history_slots >= 8, "ArimaDetector: history too short");
}

void ArimaDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "ArimaDetector: training must be whole weeks");
  require(training.size() >= 4 * kSlotsPerWeek,
          "ArimaDetector: need at least four training weeks");
  model_ = ts::ArimaModel::fit(training, config_.order);
  const std::size_t tail =
      std::min<std::size_t>(config_.history_slots, training.size());
  history_tail_.assign(training.end() - tail, training.end());

  // Empirical calibration: roll the forecaster through the training weeks
  // (after a warm-up) and record per-week violation counts.  Honest weeks
  // violate a 95% CI at roughly the nominal rate (model misspecification can
  // push it higher); the threshold sits above the worst training week.
  const std::size_t warmup_weeks = 2;
  ts::RollingForecaster forecaster =
      model_->forecaster(training.subspan(0, warmup_weeks * kSlotsPerWeek));
  std::size_t worst = 0;
  std::size_t count = 0;
  for (std::size_t t = warmup_weeks * kSlotsPerWeek; t < training.size();
       ++t) {
    const ts::Forecast f = forecaster.next();
    if (!f.contains(training[t], config_.z)) ++count;
    forecaster.observe(training[t]);
    if ((t + 1) % kSlotsPerWeek == 0) {
      worst = std::max(worst, count);
      count = 0;
    }
  }
  violation_threshold_ = static_cast<std::size_t>(std::ceil(
                             static_cast<double>(worst) *
                             (1.0 + config_.count_slack))) +
                         config_.count_margin;
}

const ts::ArimaModel& ArimaDetector::model() const {
  require(model_.has_value(), "ArimaDetector: fit() not called");
  return *model_;
}

std::size_t ArimaDetector::violation_count(std::span<const Kw> week) const {
  require(model_.has_value(), "ArimaDetector: fit() not called");
  ts::RollingForecaster forecaster = model_->forecaster(history_tail_);
  std::size_t count = 0;
  for (double reading : week) {
    const ts::Forecast f = forecaster.next();
    if (!f.contains(reading, config_.z)) ++count;
    forecaster.observe(reading);  // reported stream advances (poisons) state
  }
  return count;
}

bool ArimaDetector::flag_week(std::span<const Kw> week,
                              SlotIndex /*first_slot*/) const {
  return violation_count(week) > violation_threshold_;
}

}  // namespace fdeta::core
