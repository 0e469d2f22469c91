// Time-to-detection via the sliding week vector (Section VII-D).
//
// "The new week vector can be completed with trusted data from a week in the
// training set (historic readings).  As new consumption readings are
// recorded, they will replace the historic readings in the week vector.  If
// the week vector contains sufficiently anomalous readings right at the
// beginning, it may appear anomalous before a full week of new data has been
// collected.  This approach was used by the authors of [3] to calculate the
// time-to-detection."
//
// The monitor keeps a 336-slot vector primed with a trusted reference week;
// each incoming reading replaces one slot, the detector rescoring after each
// replacement.  Detection latency is the number of attack readings consumed
// before the first flag.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "eval/detector.h"

namespace fdeta::core {

/// Streams readings through a sliding week vector scored by `detector`.
class SlidingWeekMonitor {
 public:
  /// `reference_week` supplies the trusted initial contents (typically the
  /// last training week).  The detector must already be fitted.
  SlidingWeekMonitor(const Detector& detector,
                     std::span<const Kw> reference_week);

  /// Consumes the next reading (slot-of-week position advances cyclically);
  /// returns true if the detector flags the current mixed vector.
  bool push(Kw reading);

  /// Number of readings consumed so far.
  std::size_t readings_seen() const { return count_; }

  const std::vector<Kw>& window() const { return window_; }

 private:
  const Detector* detector_;
  std::vector<Kw> window_;
  std::size_t next_slot_ = 0;
  std::size_t count_ = 0;
};

/// Feeds `readings` into a fresh monitor and returns how many were consumed
/// before the first flag (1-based), or nullopt if the stream ends silent.
/// This is the time-to-detection in polling periods; multiply by Delta-t for
/// hours.
std::optional<std::size_t> time_to_detection(
    const Detector& detector, std::span<const Kw> reference_week,
    std::span<const Kw> readings);

}  // namespace fdeta::core
