// The price-conditioned KLD detector (Section VIII-F3).
//
// The Optimal Swap attack changes only the *temporal ordering* of readings,
// so the unconditioned KLD detector is blind to it.  Conditioning splits the
// X distribution into one distribution per price group (peak / off-peak for
// TOU; price bands for RTP) and runs the eq.-(12) machinery within each
// group.  A week is anomalous if ANY group's divergence exceeds that group's
// training threshold.  The paper notes the same conditioning extends to
// detecting Attack Class 4B under RTP.
//
// ConditionedKldDetector is the "ckld" family, on any calendar, as a
// standalone core::Detector: a one-member DetectorFleet.  Its scalar raw
// score is the worst group margin max_g(scores(week)[g] - thresholds()[g]),
// so raw_decision_threshold() is 0; the calibration reference is the
// training weeks' margins on that same scale.
#pragma once

#include <vector>

#include "core/detector_plugin.h"

namespace fdeta::core {

class ConditionedKldDetector final : public ScoringDetector {
 public:
  /// Throws InvalidArgument unless slot_group names at least two groups
  /// and every id up to its largest owns a slot.
  explicit ConditionedKldDetector(ConditionedKldDetectorConfig config = {})
      : ScoringDetector(DetectorFleet(config)) {}

  ConditionedKldDetectorConfig config() const;
  /// The number of price groups: the largest slot_group id + 1.
  std::size_t groups() const { return fleet().groups(); }

  /// Per-group divergence scores for a week.
  std::vector<double> scores(std::span<const Kw> week,
                             SlotIndex first_slot = 0) const {
    return fitted().group_scores(0, week, first_slot);
  }

  /// Per-group thresholds.
  std::vector<double> thresholds() const;

  /// Per-group per-bin breakdowns: explanations[g].score equals
  /// scores(week)[g] and explanations[g].threshold equals thresholds()[g].
  /// explain_week carries the worst group's, rebased to the margin scale.
  std::vector<KldExplanation> explain(std::span<const Kw> week,
                                      SlotIndex first_slot = 0) const {
    return fitted().explain_groups(0, week, first_slot);
  }
};

}  // namespace fdeta::core
