// The price-conditioned KLD detector (Section VIII-F3).
//
// The Optimal Swap attack changes only the *temporal ordering* of readings,
// so the unconditioned KLD detector is blind to it.  Conditioning splits the
// X distribution into one distribution per price group (peak / off-peak for
// TOU; price bands for RTP) and runs the eq.-(12) machinery - one KldModel -
// within each group.  A week is anomalous if ANY group's divergence exceeds
// that group's training threshold.  The paper notes the same conditioning
// extends to detecting Attack Class 4B under RTP.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/detector_plugin.h"
#include "core/kld_detector.h"
#include "pricing/tariff.h"

namespace fdeta::core {

/// A price calendar: the price-group id of each slot-of-week position.  Every
/// fit and score reduces slots mod week, so these 336 ids are a calendar's
/// whole behaviour.
using SlotGroups = std::array<std::uint32_t, kSlotsPerWeek>;

/// The calendar of a TOU schedule (group 0 = off-peak, group 1 = peak).
SlotGroups tou_slot_groups(const pricing::TimeOfUse& tou);

/// The calendar banding an RTP stream's prices into `bands` quantile bands
/// over its first `slots` slots; slot-of-week s takes the band of slot
/// s mod `slots`.
SlotGroups rtp_slot_groups(const pricing::RealTimePricing& rtp,
                           std::size_t slots, std::size_t bands);

struct ConditionedKldDetectorConfig {
  /// Histogram / threshold knobs, as KldDetectorConfig, applied per price
  /// group: epsilon keeps group scores finite when a scored week puts mass
  /// in a bin empty across that group's training readings, and scored
  /// readings outside a group's frozen training support are excluded from
  /// that group's bin mass.
  KldDetectorConfig kld{};
  /// The price group of each slot-of-week position; the group count is the
  /// largest id + 1.  Defaults to Nightsaver peak/off-peak.
  SlotGroups slot_group = tou_slot_groups(pricing::nightsaver());
};

class ConditionedKldDetector final : public ScoringDetector {
 public:
  /// Throws InvalidArgument unless slot_group names at least two groups
  /// and every id up to its largest owns a slot.
  explicit ConditionedKldDetector(ConditionedKldDetectorConfig config = {});

  const ConditionedKldDetectorConfig& config() const { return config_; }
  /// The number of price groups: the largest slot_group id + 1.
  std::size_t groups() const { return groups_; }
  void fit(std::span<const Kw> training) override;

  // --- ScoringDetector plugin surface ------------------------------------
  /// The family-native scalar score is the worst per-group threshold margin,
  /// max_g(scores(week)[g] - thresholds()[g]), so raw_decision_threshold()
  /// is 0 and the raw score > threshold decision is the "any group over its
  /// own threshold" rule exactly (for IEEE doubles, a - b > 0 iff a > b).
  /// The calibration reference is the training weeks' margins on that same
  /// scale (persisted in checkpoints).
  double raw_score_week(std::span<const Kw> week,
                        SlotIndex first_slot = 0) const override;
  double raw_decision_threshold() const override { return 0.0; }
  /// Counts are one block of KldModel::count_words() per price group, in
  /// group order; a reading moves only its slot-of-week's group block.
  std::size_t count_words() const override {
    return models().size() * models().front().count_words();
  }
  void count_reading(std::span<std::uint16_t> counts, std::size_t position,
                     Kw value, int delta) const override;
  double raw_score_counts(
      std::span<const std::uint16_t> counts) const override;
  /// The explanation of the worst-margin group (the one driving the score).
  /// The header is rebased to the scalar margin scale (score ==
  /// raw_score_week(week), threshold == raw_decision_threshold() == 0) per
  /// the plugin contract; the bins keep the worst group's raw eq.-(12)
  /// decomposition, so their bits sum to that group's raw divergence, score
  /// + its threshold.  explain() exposes the raw per-group headers.
  KldExplanation raw_explain_week(std::span<const Kw> week,
                                  SlotIndex first_slot = 0) const override;
  /// One model per price group, in group order; the reference is the
  /// training weeks' margins (the groups' K_i are not kept).
  FittedParts fitted_parts() const override;
  void restore_parts(const MemberRows& rows) override;

  /// Per-group divergence scores for a week.
  std::vector<double> scores(std::span<const Kw> week,
                             SlotIndex first_slot = 0) const;

  /// Per-group thresholds.
  std::vector<double> thresholds() const;

  /// Per-group per-bin breakdowns: explanations[g].score equals
  /// scores(week)[g] and explanations[g].threshold equals thresholds()[g].
  std::vector<KldExplanation> explain(std::span<const Kw> week,
                                      SlotIndex first_slot = 0) const;

 private:
  /// The fitted per-group models; throws InvalidArgument before fit().
  const std::vector<KldModel>& models() const;
  /// Installs fitted per-group models and training margins plus the
  /// calibration over those margins.
  void adopt(std::vector<KldModel> models, std::vector<double> margins);
  /// Counts every reading of a slot-aligned week into `counts`
  /// (count_words() words, zeroed here).
  void count_week(std::span<const Kw> week, SlotIndex first_slot,
                  std::span<std::uint16_t> counts) const;
  /// Group g's block of counts.
  std::span<const std::uint16_t> group_counts(
      std::span<const std::uint16_t> counts, std::size_t g) const {
    const std::size_t words = models_[g].count_words();
    return counts.subspan(g * words, words);
  }

  ConditionedKldDetectorConfig config_;
  std::size_t groups_ = 0;
  std::vector<KldModel> models_;           // per group; empty until fitted
  std::vector<double> training_margins_;   // per training week
};

}  // namespace fdeta::core
