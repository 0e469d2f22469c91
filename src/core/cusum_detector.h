// CUSUM detector: classic two-sided cumulative-sum change detection on the
// seasonally-adjusted reading stream.
//
// A standard sequential baseline in AMI anomaly detection (the broader
// family surveyed in ref [15]): residuals against the weekly profile are
// standardised and accumulated with drift k; an attack that persistently
// shifts consumption (1B up, 2A/2B down) drives one of the two sums across
// the decision threshold h, while zero-mean noise is absorbed by the drift.
// Like the KLD detector - and unlike the rolling ARIMA CI - it cannot be
// poisoned by the reported stream, but it keys on the *mean* shift rather
// than the distribution, so cleverly variance-matched attacks degrade it.
#pragma once

#include <optional>

#include "core/detector.h"
#include "timeseries/seasonal.h"

namespace fdeta::core {

struct CusumDetectorConfig {
  double drift_k = 0.5;  ///< reference value (in sigmas) absorbed per step
  /// Decision threshold h (in accumulated sigmas); calibrated upward if the
  /// training weeks themselves exceed it.
  double threshold_h = 15.0;
  double threshold_slack = 1.25;  ///< calibrated h = max(h, worst * slack)
};

class CusumDetector final : public Detector {
 public:
  explicit CusumDetector(CusumDetectorConfig config = {});

  void fit(std::span<const Kw> training) override;
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

  /// Peak of max(S+, S-) over the week (the decision statistic).
  double peak_statistic(std::span<const Kw> week) const;
  double threshold() const { return calibrated_h_; }

 private:
  CusumDetectorConfig config_;
  std::optional<ts::WeeklyProfile> profile_;
  double calibrated_h_ = 0.0;
};

/// EWMA detector: exponentially weighted moving average of the standardised
/// residuals with control limits - the other textbook sequential baseline.
struct EwmaDetectorConfig {
  double lambda = 0.1;    ///< smoothing weight of the newest residual
  double limit_l = 4.0;   ///< control limit in EWMA standard deviations
  double limit_slack = 1.25;
};

class EwmaDetector final : public Detector {
 public:
  explicit EwmaDetector(EwmaDetectorConfig config = {});

  void fit(std::span<const Kw> training) override;
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

  /// Peak |EWMA| (in asymptotic control-limit units) over the week.
  double peak_statistic(std::span<const Kw> week) const;
  double threshold() const { return calibrated_l_; }

 private:
  EwmaDetectorConfig config_;
  std::optional<ts::WeeklyProfile> profile_;
  double calibrated_l_ = 0.0;
};

}  // namespace fdeta::core
