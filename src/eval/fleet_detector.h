// The registered KLD families as core::Detectors for the evaluation harness.
//
// The serving layers hold DetectorFleets of many members; the Section-VIII
// harness runs one detector per consumer beside the ARIMA baselines through
// Detector's fit/flag contract.  FleetDetector adapts a one-member fleet to
// that contract.  A caller that needs a fitted detector's rows, scores or
// explanations reads them from fleet(), as member 0.
#pragma once

#include <span>
#include <string>

#include "core/detector_fleet.h"
#include "eval/detector.h"

namespace fdeta::core {

class FleetDetector final : public Detector {
 public:
  /// An unfitted detector of the registered `family`.  Throws
  /// std::invalid_argument on an unknown family and InvalidArgument on
  /// options the family rejects.
  explicit FleetDetector(std::string family, DetectorOptions options = {});
  /// An unfitted ckld detector on `config`'s calendar (e.g. RTP bands).
  explicit FleetDetector(const ConditionedKldDetectorConfig& config);

  /// Refits the one-member fleet on `training` (any whole number of at
  /// least four weeks).  A failed fit leaves the previous fit in place.
  void fit(std::span<const Kw> training) override;

  /// Decided on the raw scale: raw_score_week > raw_decision_threshold.
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

  /// The fitted one-member fleet.  Throws InvalidArgument before fit():
  /// the fleet's member calls do not bounds-check the member index.
  const DetectorFleet& fleet() const;

 private:
  DetectorFleet fleet_;
};

}  // namespace fdeta::core
