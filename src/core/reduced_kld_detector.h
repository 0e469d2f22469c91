// The feature-reduced "lightweight" KLD detector ("kld-lite").
//
// *Lightweight LSTM Model for Energy Theft Detection via Input Data
// Reduction* (PAPERS.md) shows that aggressively reduced weekly inputs can
// hold a detector's operating point.  This family applies the idea to the
// paper's eq.-(12) machinery: fit selects the k slot-of-week positions with
// the highest training variance (the slots that carry the distribution's
// information; ties break on the lower slot index, so selection is
// deterministic), and one KldModel is fitted and scored over those k
// readings of every week.  Scoring cost drops from 336 to k binning
// operations per week - the lever for serving millions of meters on the
// sharded monitor hot path.  bench/ablation_input_reduction sweeps k against
// recall/FPR at the paper's operating point; see EXPERIMENTS.md.
#pragma once

#include <bitset>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/detector_plugin.h"
#include "core/kld_detector.h"

namespace fdeta::core {

struct ReducedKldDetectorConfig {
  /// k: slot-of-week positions kept per week (1..336; 336 = plain KLD over
  /// a variance-reordered week).
  std::size_t selected_slots = 48;
  /// Histogram / threshold knobs, as KldDetectorConfig (epsilon smoothing
  /// and out-of-support handling apply to the reduced distribution).
  KldDetectorConfig kld{};
};

class ReducedKldDetector final : public ScoringDetector {
 public:
  explicit ReducedKldDetector(ReducedKldDetectorConfig config = {});

  const ReducedKldDetectorConfig& config() const { return config_; }
  void fit(std::span<const Kw> training) override;

  double raw_score_week(std::span<const Kw> week,
                        SlotIndex first_slot = 0) const override;
  double raw_decision_threshold() const override {
    return model().threshold();
  }
  /// Full eq.-(12) bin breakdown over the reduced histogram: the bits sum
  /// reproduces raw_score_week exactly.
  KldExplanation raw_explain_week(std::span<const Kw> week,
                                  SlotIndex first_slot = 0) const override;
  /// Only the k selected positions count; a reading at any other position
  /// leaves the counts unchanged.
  std::size_t count_words() const override { return model().count_words(); }
  void count_reading(std::span<std::uint16_t> counts, std::size_t position,
                     Kw value, int delta) const override;
  double raw_score_counts(
      std::span<const std::uint16_t> counts) const override {
    return model().score(counts);
  }
  FittedParts fitted_parts() const override;
  /// Also rejects positions outside the week or not strictly ascending.
  void restore_parts(const MemberRows& rows) override;

 private:
  const KldModel& model() const;
  /// Installs the selection and its fitted model plus the calibration.
  void adopt(std::vector<std::uint32_t> selected, KldModel model);
  /// Counts the selected readings of a slot-aligned week into `counts`
  /// (count_words() words, zeroed here).
  void count_week(std::span<const Kw> week, SlotIndex first_slot,
                  std::span<std::uint16_t> counts) const;

  ReducedKldDetectorConfig config_;
  std::vector<std::uint32_t> selected_;  // ascending slot-of-week positions
  std::bitset<kSlotsPerWeek> is_selected_;  // selected_ by position
  std::optional<KldModel> model_;        // over the selected readings
};

}  // namespace fdeta::core
