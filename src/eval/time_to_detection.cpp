#include "eval/time_to_detection.h"

#include "common/error.h"

namespace fdeta::core {

SlidingWeekMonitor::SlidingWeekMonitor(const Detector& detector,
                                       std::span<const Kw> reference_week)
    : detector_(&detector),
      window_(reference_week.begin(), reference_week.end()) {
  require(window_.size() == kSlotsPerWeek,
          "SlidingWeekMonitor: reference week must be one week long");
}

bool SlidingWeekMonitor::push(Kw reading) {
  window_[next_slot_] = reading;
  next_slot_ = (next_slot_ + 1) % window_.size();
  ++count_;
  return detector_->flag_week(window_);
}

std::optional<std::size_t> time_to_detection(
    const Detector& detector, std::span<const Kw> reference_week,
    std::span<const Kw> readings) {
  SlidingWeekMonitor monitor(detector, reference_week);
  for (std::size_t i = 0; i < readings.size(); ++i) {
    if (monitor.push(readings[i])) return i + 1;
  }
  return std::nullopt;
}

}  // namespace fdeta::core
