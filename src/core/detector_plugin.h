// The detector plugin interface.
//
// Detector (detector.h) is the minimal fit/flag contract the evaluation
// harness consumes.  ScoringDetector is the full plugin contract the serving
// layers (DetectorFleet and its owners, the model checkpoints, the CLI's
// --detector flag) thread through:
//
//   - a scalar anomaly score per week plus a decision threshold (the flag
//     decision is score > threshold, uniformly, so alerts/verdicts carry a
//     comparable score regardless of family).  Since the calibration layer
//     landed, score_week is the CALIBRATED anomaly quantile in [0, 1] (see
//     ScoreCalibration below) and decision_threshold() is uniformly
//     1 - significance; each family's native score scale stays reachable
//     through raw_score_week / raw_decision_threshold,
//   - a per-bin explanation of every scored week,
//   - its fitted parts as views, and their adoption from decoded rows: the
//     two hooks behind DetectorFleet's one checkpoint codec (detector_fleet.h),
//   - a count contract: every family sees a week only through per-bin
//     counts, so a caller can keep a window's counts current one reading at
//     a time and score the counts; a sliding window rescore costs O(bins)
//     instead of a re-bin of 336 readings (OnlineMonitor's counted windows).
//
// Implementations must be usable concurrently from multiple threads after
// fit() returns: every scoring entry point is const and may not mutate
// observable state (the property suite in tests/test_property_invariants.cpp
// enforces this for every registered family).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/detector.h"

namespace fdeta::core {

struct FittedParts;  // kld_detector.h
struct MemberRows;   // kld_detector.h

/// One bin's share of a week's K_A score: the p_j * log2(p_j / q_j) term of
/// eq. (12), where p is the scored week's distribution and q the (smoothed)
/// training baseline.
struct KldBinContribution {
  std::size_t bin = 0;  ///< bin index in [0, B)
  double lower = 0.0;   ///< bin lower edge (kW)
  double upper = 0.0;   ///< bin upper edge (kW)
  double p = 0.0;       ///< week mass in the bin
  double q = 0.0;       ///< baseline (scoring) mass in the bin
  double bits = 0.0;    ///< contribution to K_A; 0 when p == 0
};

/// A full per-bin breakdown of one scored week.  Invariant: the sum of
/// bins[*].bits equals raw_score up to the same clamp kl_divergence_bits
/// applies (tiny negative totals snap to 0).
struct KldExplanation {
  double score = 0.0;          ///< identical to score_week(week) (calibrated)
  double threshold = 0.0;      ///< identical to decision_threshold()
  double raw_score = 0.0;      ///< the family-native score (bins sum to this)
  double raw_threshold = 0.0;  ///< the family-native decision threshold
  std::vector<KldBinContribution> bins;
};

/// Maps a family's native score scale onto a registry-uniform calibrated
/// scale: the empirical anomaly quantile in [0, 1] of the family's training
/// reference scores, anchored at the family's raw decision threshold.
///
/// The map is monotone non-decreasing and FLAG-PRESERVING by construction:
///
///   calibrate(raw) > 1 - significance   iff   raw > raw_threshold()
///
/// which is what lets decision_threshold() be the uniform 1 - significance
/// across every family without moving a single flag decision.  Raw scores at
/// or below the raw threshold land in [0, 1 - significance] by their position
/// in the reference distribution (linear between sorted reference points, the
/// left inverse of the Hyndman-Fan-7 quantile); raw scores above it land in
/// (1 - significance, 1].  Calibration is a pure function of (reference,
/// raw_threshold, significance), so restored checkpoints and sharded fleets
/// reproduce calibrated scores bit-exactly.
class ScoreCalibration {
 public:
  ScoreCalibration() = default;

  /// Calibration over a reference sample of raw scores (the family's
  /// training scores on the same scale raw_score_week reports).  The
  /// reference is sorted internally.  Throws InvalidArgument on an empty
  /// reference or a `significance` outside (0, 1).
  static ScoreCalibration from_reference(std::vector<double> reference,
                                         double raw_threshold,
                                         double significance);

  bool fitted() const { return fitted_; }
  double significance() const { return significance_; }
  double raw_threshold() const { return raw_threshold_; }
  /// The uniform calibrated decision threshold: 1 - significance.
  double decision_threshold() const { return 1.0 - significance_; }
  /// The sorted reference sample.
  const std::vector<double>& reference() const { return reference_; }

  /// The calibrated anomaly quantile of a raw score, in [0, 1].  NaN inputs
  /// propagate; +-infinity map to the segment extremes.
  double calibrate(double raw) const;

 private:
  /// Position of x in the sorted reference, in [0, 1]: the left inverse of
  /// quantile_sorted (x below the min is 0, above the max is 1, linear
  /// between adjacent order statistics).
  double position(double x) const;

  std::vector<double> reference_;  // sorted ascending; non-empty once fitted
  double raw_threshold_ = 0.0;
  double significance_ = 0.05;
  double threshold_position_ = 0.0;  // cached position(raw_threshold_)
  bool fitted_ = false;
};

class ScoringDetector : public Detector {
 public:
  /// The family-native anomaly score of a week (divergence bits or a group
  /// margin).  `first_slot` is the week's absolute slot index (weeks are
  /// slot-aligned), needed by slot-of-week aware families.
  /// Finite for any input under the default configs.
  virtual double raw_score_week(std::span<const Kw> week,
                                SlotIndex first_slot = 0) const = 0;

  /// The family-native decision threshold: a week is anomalous iff
  /// raw_score_week(week) > raw_decision_threshold().
  virtual double raw_decision_threshold() const = 0;

  /// The CALIBRATED anomaly score of a week: the raw score mapped through
  /// the family's ScoreCalibration into [0, 1], comparable across families
  /// (0.97 means "further out than the 1 - significance training quantile"
  /// whatever the family).  The flag decision is unchanged from the raw
  /// rule: score_week(week) > decision_threshold() iff
  /// raw_score_week(week) > raw_decision_threshold().
  double score_week(std::span<const Kw> week, SlotIndex first_slot = 0) const {
    return calibration_.calibrate(raw_score_week(week, first_slot));
  }

  /// The uniform calibrated decision threshold: 1 - significance, for every
  /// family.
  double decision_threshold() const {
    return calibration_.decision_threshold();
  }

  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override {
    // Decided on the raw scale; identical to the calibrated comparison by
    // ScoreCalibration's flag-preservation invariant.
    return raw_score_week(week, first_slot) > raw_decision_threshold();
  }

  /// The family's score calibration; fitted once fit() (or a restore) has
  /// run.
  const ScoreCalibration& calibration() const { return calibration_; }

  /// Per-bin breakdown of a week.  The header carries the calibrated score
  /// and threshold (matching score_week/decision_threshold exactly) plus the
  /// family-native raw_score/raw_threshold the bins decompose.
  KldExplanation explain_week(std::span<const Kw> week,
                              SlotIndex first_slot = 0) const;

  /// Family hook behind explain_week: the full eq.-(12) decomposition,
  /// score and threshold on the RAW scale (explain_week rebases the
  /// header).
  virtual KldExplanation raw_explain_week(std::span<const Kw> week,
                                          SlotIndex first_slot = 0) const = 0;

  // --- Count contract ----------------------------------------------------
  /// The number of u16 count words one week window needs (> 0).  Like the
  /// scoring members, the count members need a fitted detector.
  virtual std::size_t count_words() const = 0;

  /// Moves one reading at slot-of-week `position` (in [0, kSlotsPerWeek))
  /// into (`delta` = +1) or out of (`delta` = -1) `counts`
  /// (count_words() words).  Counting every reading of a slot-aligned week
  /// in, from zeroed counts, is what raw_score_week does internally.
  virtual void count_reading(std::span<std::uint16_t> counts,
                             std::size_t position, Kw value,
                             int delta) const = 0;

  /// The raw score of counted readings: bit-identical to raw_score_week of
  /// the week whose readings the counts hold.
  virtual double raw_score_counts(
      std::span<const std::uint16_t> counts) const = 0;

  // --- Checkpoint hooks (DetectorFleet is their one caller) --------------
  /// The fitted state as views into this detector; requires fit().
  virtual FittedParts fitted_parts() const = 0;

  /// Adopts one member's decoded rows, checking every model through
  /// KldModel::from_parts; scores then match the saved detector bit for bit.
  /// Throws DataError on a malformed row.
  virtual void restore_parts(const MemberRows& rows) = 0;

 protected:
  /// Every family assigns this at the end of fit() and of restore_parts()
  /// (copies carry it along).  Until then score_week / decision_threshold
  /// throw via ScoreCalibration's fitted check.
  ScoreCalibration calibration_;
};

}  // namespace fdeta::core
