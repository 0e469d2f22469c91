// The feature-reduced "lightweight" KLD detector ("kld-lite").
//
// *Lightweight LSTM Model for Energy Theft Detection via Input Data
// Reduction* (PAPERS.md) shows that aggressively reduced weekly inputs can
// hold a detector's operating point.  This family applies the idea to the
// paper's eq.-(12) machinery: fit selects the k slot-of-week positions with
// the highest training variance (the slots that carry the distribution's
// information; ties break on the lower slot index, so selection is
// deterministic), and both the baseline histogram and every scored week are
// built from those k readings only.  Scoring cost drops from 336 to k
// binning operations per week - the lever for serving millions of meters on
// the sharded monitor hot path.  bench/ablation_input_reduction sweeps k
// against recall/FPR at the paper's operating point; see EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/detector_plugin.h"
#include "core/kld_detector.h"
#include "stats/histogram.h"

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

  std::string_view name() const override { return "Reduced-input KLD"; }
  const ReducedKldDetectorConfig& config() const { return config_; }
  void fit(std::span<const Kw> training) override;

  double raw_score_week(std::span<const Kw> week,
                        SlotIndex first_slot = 0) const override;
  double raw_decision_threshold() const override;
  /// Full eq.-(12) bin breakdown over the reduced histogram: the bits sum
  /// reproduces raw_score_week exactly.
  KldExplanation raw_explain_week(std::span<const Kw> week,
                                  SlotIndex first_slot = 0) const override;
  void save_state(persist::Encoder& enc) const override;
  void restore_state(persist::Decoder& dec) override;
  std::string config_fingerprint() const override;

  /// The selected slot-of-week positions, ascending (exposed for tests and
  /// the input-reduction sweep).
  const std::vector<std::uint32_t>& selected_slots() const;
  /// Training-week divergences over the reduced input.
  const std::vector<double>& training_divergences() const;

 private:
  void rebuild_scoring_baseline();
  /// Gathers the selected slots of a slot-aligned week into `out`
  /// (out.size() == selected_.size()).
  void gather(std::span<const Kw> week, SlotIndex first_slot,
              std::span<double> out) const;

  ReducedKldDetectorConfig config_;
  std::vector<std::uint32_t> selected_;  // ascending slot-of-week positions
  std::optional<stats::Histogram> histogram_;
  std::vector<double> baseline_;    // raw p(X^(j)) over the reduced matrix
  std::vector<double> scoring_;     // epsilon-smoothed scoring copy
  std::vector<double> k_training_;  // K_i over the reduced weeks
  double threshold_ = 0.0;
};

}  // namespace fdeta::core
