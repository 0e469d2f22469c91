#include "eval/integrated_arima_detector.h"

#include "common/error.h"
#include "stats/descriptive.h"

namespace fdeta::core {

IntegratedArimaDetector::IntegratedArimaDetector(
    IntegratedArimaDetectorConfig config)
    : config_(config), arima_(config.arima) {
  require(config_.bound_slack >= 0.0,
          "IntegratedArimaDetector: negative slack");
}

void IntegratedArimaDetector::fit(std::span<const Kw> training) {
  arima_.fit(training);
  stats_ = meter::weekly_stats(training);
}

const meter::WeeklyStats& IntegratedArimaDetector::training_stats() const {
  require(stats_.has_value(), "IntegratedArimaDetector: fit() not called");
  return *stats_;
}

bool IntegratedArimaDetector::window_checks_fail(
    std::span<const Kw> week) const {
  const meter::WeeklyStats& s = training_stats();
  const double m = stats::mean(week);
  const double v = stats::variance(week);
  const double slack = config_.bound_slack;
  const double mean_lo = s.mean_lo * (1.0 - slack);
  const double mean_hi = s.mean_hi * (1.0 + slack);
  const double var_hi = s.var_hi * (1.0 + slack);
  return m < mean_lo || m > mean_hi || v > var_hi;
}

bool IntegratedArimaDetector::flag_week(std::span<const Kw> week,
                                        SlotIndex first_slot) const {
  return arima_.flag_week(week, first_slot) || window_checks_fail(week);
}

}  // namespace fdeta::core
