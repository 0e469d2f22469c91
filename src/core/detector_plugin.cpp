#include "core/detector_plugin.h"

#include "common/error.h"

namespace fdeta::core {

void ScoringDetector::fit(std::span<const Kw> training) {
  DetectorFleet next = fleet_;
  next.reset(1, training_weeks(training));
  next.fit(0, training);
  fleet_ = std::move(next);
}

const DetectorFleet& ScoringDetector::fitted() const {
  if (fleet_.size() == 0) {
    throw InvalidArgument(fleet_.family() + " detector: fit() not called");
  }
  return fleet_;
}

}  // namespace fdeta::core
