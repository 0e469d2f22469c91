// The F-DETA detector interface.
//
// A detector is a centralized online algorithm at the utility's control
// center (Section VII-A): it is trained per consumer on historic readings
// and then judges each new week of *reported* readings.  Implementations
// must be usable concurrently from multiple threads after fit() returns
// (flag_week is const).
#pragma once

#include <span>

#include "common/units.h"

namespace fdeta::core {

class Detector {
 public:
  virtual ~Detector() = default;

  /// Trains the per-consumer model.  `training` must be a whole number of
  /// weeks of half-hour readings (the paper uses 60 weeks).
  virtual void fit(std::span<const Kw> training) = 0;

  /// Judges one week of reported readings.  `first_slot` is the week's
  /// absolute slot index (weeks are always slot-aligned), needed by
  /// price-aware detectors.  Returns true if the week is anomalous.
  virtual bool flag_week(std::span<const Kw> week,
                         SlotIndex first_slot = 0) const = 0;
};

}  // namespace fdeta::core
