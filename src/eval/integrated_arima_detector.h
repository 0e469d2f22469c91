// The Integrated ARIMA detector of ref [2]: the per-reading ARIMA CI check
// plus window checks that the week's mean lies within the range of training
// weekly means and that its variance does not exceed the training maximum
// ("checks on the mean and variance of a set of readings",
// Section VIII-B1; the attack is designed so that these statistics "do not
// exceed thresholds based on historic data").
#pragma once

#include <optional>

#include "eval/arima_detector.h"
#include "meter/weekly_stats.h"

namespace fdeta::core {

struct IntegratedArimaDetectorConfig {
  ArimaDetectorConfig arima{};
  /// Relative slack applied to the historical bounds, absorbing smart-meter
  /// measurement error (+/-0.5%, ref [11]) plus sampling wobble.
  double bound_slack = 0.02;
};

class IntegratedArimaDetector final : public Detector {
 public:
  explicit IntegratedArimaDetector(IntegratedArimaDetectorConfig config = {});

  void fit(std::span<const Kw> training) override;
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

  /// The window-check component alone (mean/variance bounds).
  bool window_checks_fail(std::span<const Kw> week) const;

  const ArimaDetector& arima() const { return arima_; }
  const meter::WeeklyStats& training_stats() const;

 private:
  IntegratedArimaDetectorConfig config_;
  ArimaDetector arima_;
  std::optional<meter::WeeklyStats> stats_;
};

}  // namespace fdeta::core
