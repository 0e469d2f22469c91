#include "eval/profile_detector.h"

#include <cmath>

#include "common/error.h"

namespace fdeta::core {

ProfileDetector::ProfileDetector(ProfileDetectorConfig config)
    : config_(config) {
  require(config_.z > 0.0, "ProfileDetector: z must be positive");
}

void ProfileDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "ProfileDetector: training must be whole weeks");
  const std::size_t weeks = training.size() / kSlotsPerWeek;
  require(weeks >= 4, "ProfileDetector: need at least four training weeks");
  profile_.emplace(training, kSlotsPerWeek);

  // Calibrate the weekly deviant-count threshold on the training weeks
  // themselves (they include the natural anomalies of Section VIII-A).
  std::size_t worst = 0;
  for (std::size_t w = 0; w < weeks; ++w) {
    const std::span<const Kw> week{training.data() + w * kSlotsPerWeek,
                                   static_cast<std::size_t>(kSlotsPerWeek)};
    worst = std::max(worst, deviant_count(week));
  }
  threshold_ = static_cast<std::size_t>(std::ceil(
                   static_cast<double>(worst) * (1.0 + config_.count_slack))) +
               config_.count_margin;
}

std::size_t ProfileDetector::deviant_count(std::span<const Kw> week) const {
  require(profile_.has_value(), "ProfileDetector: fit() not called");
  std::size_t count = 0;
  for (std::size_t s = 0; s < week.size(); ++s) {
    if (std::fabs(profile_->zscore(s % kSlotsPerWeek, week[s])) > config_.z) {
      ++count;
    }
  }
  return count;
}

bool ProfileDetector::flag_week(std::span<const Kw> week,
                                SlotIndex /*first_slot*/) const {
  return deviant_count(week) > threshold_;
}

}  // namespace fdeta::core
