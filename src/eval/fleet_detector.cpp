#include "eval/fleet_detector.h"

#include <utility>

#include "common/error.h"

namespace fdeta::core {

FleetDetector::FleetDetector(std::string family, DetectorOptions options)
    : fleet_(std::move(family), options, 0, 0) {}

FleetDetector::FleetDetector(const ConditionedKldDetectorConfig& config)
    : fleet_(config) {}

void FleetDetector::fit(std::span<const Kw> training) {
  DetectorFleet next = fleet_;
  next.reset(1, training_weeks(training));
  next.fit(0, training);
  fleet_ = std::move(next);
}

bool FleetDetector::flag_week(std::span<const Kw> week,
                              SlotIndex first_slot) const {
  const DetectorFleet& f = fleet();
  return f.raw_score_week(0, week, first_slot) > f.raw_decision_threshold(0);
}

const DetectorFleet& FleetDetector::fleet() const {
  if (fleet_.size() == 0) {
    throw InvalidArgument(fleet_.family() + " detector: fit() not called");
  }
  return fleet_;
}

}  // namespace fdeta::core
