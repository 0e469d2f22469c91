// Weekly-profile (seasonal z-score) detector: a simple shape-based baseline
// in the spirit of the per-load pattern monitors of ref [20] (AMIDS).
//
// Each slot-of-week has a trained mean/stddev; a week is anomalous when the
// count of readings beyond `z` standard deviations from their slot's mean
// exceeds a threshold calibrated on the training weeks.  Because it keys on
// the *position* of each reading in the weekly cycle, it is sensitive to
// load shifting (3A/3B) that distribution-only checks miss - but, unlike
// the rolling ARIMA detector, it cannot be poisoned by the reported stream.
#pragma once

#include <optional>

#include "eval/detector.h"
#include "timeseries/seasonal.h"

namespace fdeta::core {

struct ProfileDetectorConfig {
  double z = 3.0;            ///< per-slot z-score considered deviant
  double count_slack = 0.25; ///< threshold = worst training count * (1+slack)
  std::size_t count_margin = 2;
};

class ProfileDetector final : public Detector {
 public:
  explicit ProfileDetector(ProfileDetectorConfig config = {});

  void fit(std::span<const Kw> training) override;
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

  /// Number of readings in the week deviating beyond z sigmas.
  std::size_t deviant_count(std::span<const Kw> week) const;

 private:
  ProfileDetectorConfig config_;
  std::optional<ts::WeeklyProfile> profile_;
  std::size_t threshold_ = 0;
};

}  // namespace fdeta::core
