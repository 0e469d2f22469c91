// The standalone detector plugin surface.
//
// Detector (detector.h) is the minimal fit/flag contract the evaluation
// harness consumes.  ScoringDetector is the base of the three registered
// family classes (KldDetector, ConditionedKldDetector, ReducedKldDetector):
// each holds a one-member DetectorFleet, and every scoring member below is a
// non-virtual call on that fleet's member 0.  The serving layers
// (FdetaPipeline, OnlineMonitor, the feeder layer, the checkpoints) hold
// DetectorFleets of many members directly; detector_fleet.h documents the
// arithmetic both share:
//
//   - a scalar anomaly score per week plus a decision threshold (the flag
//     decision is score > threshold, uniformly, so alerts/verdicts carry a
//     comparable score regardless of family).  score_week is the CALIBRATED
//     anomaly quantile in [0, 1] (calibrated_score) and decision_threshold()
//     is uniformly 1 - significance; each family's native score scale stays
//     reachable through raw_score_week / raw_decision_threshold,
//   - a per-bin explanation of every scored week,
//   - a count contract: every family sees a week only through per-bin
//     counts, so a caller can keep a window's counts current one reading at
//     a time and score the counts.
//
// Usable concurrently from multiple threads after fit() returns: every
// scoring entry point is const and mutates no observable state (the
// property suite in tests/test_property_invariants.cpp enforces this for
// every registered family).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "core/detector.h"
#include "core/detector_fleet.h"

namespace fdeta::core {

class ScoringDetector : public Detector {
 public:
  /// Refits the one-member fleet on `training` (any whole number of at
  /// least four weeks).  A failed fit leaves the previous fit in place.
  void fit(std::span<const Kw> training) override;

  /// Decided on the raw scale; identical to the calibrated comparison by
  /// calibrated_score's flag-preservation invariant.
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override {
    return raw_score_week(week, first_slot) > raw_decision_threshold();
  }

  // Every member below throws InvalidArgument before fit().

  /// The family-native anomaly score of a week (divergence bits or a group
  /// margin); finite for any input under the default configs.
  double raw_score_week(std::span<const Kw> week,
                        SlotIndex first_slot = 0) const {
    return fitted().raw_score_week(0, week, first_slot);
  }
  /// A week is anomalous iff raw_score_week(week) > raw_decision_threshold().
  double raw_decision_threshold() const {
    return fitted().raw_decision_threshold(0);
  }
  /// The CALIBRATED anomaly score of a week, comparable across families
  /// (0.97 means "further out than the 1 - significance training quantile"
  /// whatever the family): score_week(week) > decision_threshold() iff
  /// raw_score_week(week) > raw_decision_threshold().
  double score_week(std::span<const Kw> week, SlotIndex first_slot = 0) const {
    return fitted().score_week(0, week, first_slot);
  }
  /// The uniform calibrated decision threshold: 1 - significance.
  double decision_threshold() const { return fitted().decision_threshold(); }
  /// A raw score mapped onto the calibrated scale.
  double calibrate(double raw) const { return fitted().calibrate(0, raw); }

  /// Per-bin breakdown of a week.  The header carries the calibrated score
  /// and threshold (matching score_week/decision_threshold exactly) plus the
  /// family-native raw_score/raw_threshold the bins decompose.
  KldExplanation explain_week(std::span<const Kw> week,
                              SlotIndex first_slot = 0) const {
    return fitted().explain_week(0, week, first_slot);
  }
  /// The same breakdown with its header on the raw scale.
  KldExplanation raw_explain_week(std::span<const Kw> week,
                                  SlotIndex first_slot = 0) const {
    return fitted().raw_explain_week(0, week, first_slot);
  }

  // --- Count contract (DetectorFleet's, for member 0) --------------------
  std::size_t count_words() const { return fitted().count_words(); }
  void count_reading(std::span<std::uint16_t> counts, std::size_t position,
                     Kw value, int delta) const {
    fitted().count_reading(0, counts, position, value, delta);
  }
  double raw_score_counts(std::span<const std::uint16_t> counts) const {
    return fitted().raw_score_counts(0, counts);
  }

 protected:
  /// Takes a memberless fleet of the family's config.
  explicit ScoringDetector(DetectorFleet fleet) : fleet_(std::move(fleet)) {}

  /// The fitted one-member fleet; throws InvalidArgument before fit().
  const DetectorFleet& fitted() const;
  /// The fleet, fitted or not (its family, options and calendar).
  const DetectorFleet& fleet() const { return fleet_; }

 private:
  DetectorFleet fleet_;
};

}  // namespace fdeta::core
