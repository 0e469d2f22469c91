// The ARIMA detector of ref [2]: a per-reading range check against the
// one-step-ahead confidence interval of a rolling ARIMA forecast.
//
// The forecaster is fed the *reported* readings, so a consistent false
// stream poisons the model state - the CI follows the attack vector.  This
// is deliberate fidelity to the system under study: it is exactly the
// weakness the ARIMA attack exploits (Section VIII-B1).
#pragma once

#include <optional>
#include <vector>

#include "core/detector.h"
#include "timeseries/arima.h"

namespace fdeta::core {

struct ArimaDetectorConfig {
  ts::ArimaOrder order{};
  double z = 1.96;  ///< CI half-width (95% two-sided)
  /// How much training tail primes the rolling forecaster.
  std::size_t history_slots = 2 * 336;
  /// Weekly violation budget: a week is flagged when its CI-violation count
  /// exceeds max(training weekly count) * (1 + slack) + margin.  A 95% CI is
  /// *expected* to be violated ~5% of the time on honest data, so the
  /// detector must key on an anomalous violation *rate*, calibrated
  /// empirically per consumer on the training weeks.
  double count_slack = 0.25;
  std::size_t count_margin = 2;
};

class ArimaDetector final : public Detector {
 public:
  explicit ArimaDetector(ArimaDetectorConfig config = {});

  void fit(std::span<const Kw> training) override;
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

  /// Number of readings in the week that fall outside the rolling CI.
  std::size_t violation_count(std::span<const Kw> week) const;

  /// First slot within the week whose reading falls outside the CI, if any.
  std::optional<SlotIndex> first_violation(std::span<const Kw> week) const;

  /// The calibrated weekly violation-count threshold.
  std::size_t violation_threshold() const { return violation_threshold_; }

  const ts::ArimaModel& model() const;

 private:
  ArimaDetectorConfig config_;
  std::optional<ts::ArimaModel> model_;
  std::vector<Kw> history_tail_;
  std::size_t violation_threshold_ = 0;
};

}  // namespace fdeta::core
