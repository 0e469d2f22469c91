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

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/detector_plugin.h"
#include "core/kld_detector.h"
#include "pricing/tariff.h"

namespace fdeta::core {

struct ConditionedKldDetectorConfig {
  /// Histogram / threshold knobs, as KldDetectorConfig, applied per price
  /// group: epsilon keeps group scores finite when a scored week puts mass
  /// in a bin empty across that group's training readings, and scored
  /// readings outside a group's frozen training support are excluded from
  /// that group's bin mass.
  KldDetectorConfig kld{};
  /// Maps a slot-of-week [0, 336) to a price-group id [0, groups).
  /// Defaults (set by the constructor) to Nightsaver peak/off-peak.
  std::function<std::size_t(std::size_t)> slot_group;
  std::size_t groups = 2;
};

/// Builds a slot->group function from a TOU schedule (group 0 = off-peak,
/// group 1 = peak).
std::function<std::size_t(std::size_t)> tou_slot_groups(
    const pricing::TimeOfUse& tou);

/// Builds a slot->group function banding an RTP stream's prices into
/// `bands` quantile bands over the first `slots` slots.
std::function<std::size_t(std::size_t)> rtp_slot_groups(
    const pricing::RealTimePricing& rtp, std::size_t slots, std::size_t bands);

class ConditionedKldDetector final : public ScoringDetector {
 public:
  /// Tabulates every group's slot-of-week positions once; throws
  /// InvalidArgument if slot_group names a group outside [0, groups) or
  /// leaves a group without slots.
  explicit ConditionedKldDetector(ConditionedKldDetectorConfig config = {});

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
  /// The slot->group function is saved as its evaluated table over the
  /// kSlotsPerWeek slot-of-week positions (all fit/score paths reduce slots
  /// mod week, so the table is the function's entire observable behaviour).
  void save_state(persist::Encoder& enc) const override;
  void restore_state(persist::Decoder& dec) override;
  std::string config_fingerprint() const override;

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
  /// Price group of each slot-of-week position, tabulated once (a group
  /// needs at least one slot, so ids fit in 16 bits).
  std::vector<std::uint16_t> group_of_;
  std::vector<KldModel> models_;           // per group; empty until fitted
  std::vector<double> training_margins_;   // per training week
};

}  // namespace fdeta::core
