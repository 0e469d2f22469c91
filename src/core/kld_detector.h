// The Kullback-Leibler divergence detector (Section VII-D) - the paper's
// main contribution.
//
// For each consumer, the M x 336 training matrix X (one row per week) is
// histogrammed with B bins; the same frozen bin edges give each training
// week X_i a distribution, and K_i = D_KL(X_i || X) in bits (eq. 12) forms
// the KLD distribution.  A new week is anomalous when its divergence K_A
// exceeds the (1 - significance) quantile of {K_i} - the paper evaluates
// significance levels of 5% and 10% (95th/90th percentile thresholds).
//
// Non-parametric by construction: no distributional assumption on the
// consumption readings, which is what lets it catch the Integrated ARIMA
// attack that individual-reading and mean/variance checks cannot.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/detector_plugin.h"
#include "stats/histogram.h"

namespace fdeta::core {

struct KldDetectorConfig {
  std::size_t bins = 10;       ///< B of Section VIII-D
  double significance = 0.05;  ///< alpha: 0.05 or 0.10 in the paper
  /// Laplace-style smoothing mass added to every baseline bin before
  /// scoring: q'_j = (q_j + epsilon) / (1 + B * epsilon).  With the paper's
  /// bare eq. (12) (epsilon = 0), a scored week that puts ANY mass in a bin
  /// that happened to be empty across the training weeks scores +infinity -
  /// one out-of-support reading saturates the score, and with it thresholds,
  /// time-to-detection, and every downstream metric.  The default keeps an
  /// out-of-support bin worth ~30 bits per unit of week mass: still a strong
  /// anomaly signal, never non-finite.  Set 0 for paper-exact scores.
  double epsilon = 1e-9;
  /// When true (default), readings of a scored week that fall outside the
  /// frozen training support are tallied as underflow/overflow instead of
  /// being clamped into the outer bins: a quarantine-escaped negative or
  /// absurd reading no longer masquerades as legitimate lowest/highest-bin
  /// consumption mass, and the week distribution is normalised over the
  /// in-support readings only (an all-out-of-support week falls back to
  /// clamping; see Histogram::probabilities_into).  Training weeks are in
  /// support by construction, so thresholds are unaffected either way.  Set
  /// false for the paper's plain clamping semantics.
  bool exclude_out_of_support = true;
};

/// Reusable per-thread scoring scratch: score(week, scratch) bins into this
/// buffer instead of allocating a fresh distribution per call, which is what
/// keeps the fleet scoring hot path allocation-free.
struct KldScratch {
  std::vector<double> p;
};

// KldBinContribution / KldExplanation live in detector_plugin.h (the plugin
// interface's explanation vocabulary is the KLD families' bin breakdown).

class KldDetector final : public ScoringDetector {
 public:
  explicit KldDetector(KldDetectorConfig config = {});

  std::string_view name() const override { return "KLD"; }
  const KldDetectorConfig& config() const { return config_; }
  void fit(std::span<const Kw> training) override;
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

  // --- ScoringDetector plugin surface ------------------------------------
  /// score(week) through the plugin interface; keeps the fleet hot path
  /// allocation-free via an internal thread-local scratch.  The calibration
  /// reference is the training K_i distribution, so the base class's
  /// score_week reports the week's anomaly quantile among them.
  double raw_score_week(std::span<const Kw> week,
                        SlotIndex first_slot = 0) const override;
  double raw_decision_threshold() const override { return threshold(); }
  KldExplanation raw_explain_week(std::span<const Kw> week,
                                  SlotIndex first_slot = 0) const override {
    (void)first_slot;
    return explain(week);
  }
  /// Payload: config, frozen edges, baseline, training K_i, threshold.
  void save_state(persist::Encoder& enc) const override;
  void restore_state(persist::Decoder& dec) override;
  std::string config_fingerprint() const override;

  /// K_A: the divergence score of a week.  Finite for any input when
  /// config.epsilon > 0; with epsilon = 0 it is +infinity whenever the week
  /// puts mass where the training distribution has none.
  double score(std::span<const Kw> week) const;

  /// Allocation-free score: identical result, binning into the caller's
  /// scratch buffer (resized to B on first use).
  double score(std::span<const Kw> week, KldScratch& scratch) const;

  /// Per-bin breakdown of score(week): which consumption bins drove the
  /// divergence and by how many bits.  Accumulates terms in the same order
  /// as kl_divergence_bits, so the bits sum reproduces score(week) exactly.
  KldExplanation explain(std::span<const Kw> week) const;

  /// The decision threshold (the (1-alpha) quantile of training K_i).
  double threshold() const;

  /// Training-week divergences K_i (the "KLD distribution", Fig. 4b).
  const std::vector<double>& training_divergences() const;

  /// The frozen-edge histogram and the baseline X distribution (Fig. 4a).
  /// The exposed baseline is the raw eq.-(12) p(X^(j)); epsilon smoothing
  /// applies only to the internal scoring copy.
  const stats::Histogram& histogram() const;
  const std::vector<double>& baseline_distribution() const;

  /// Reassembles a fitted detector from already-decoded parts (the "kld"
  /// fleet checkpoint block decodes whole fleets of detectors from flat
  /// arrays; see DetectorFleet::restore).  Validates like restore_state()
  /// and rebuilds the smoothed scoring baseline deterministically.
  static KldDetector from_fitted_parts(KldDetectorConfig config,
                                       std::vector<double> edges,
                                       std::vector<double> baseline,
                                       std::vector<double> k_training,
                                       double threshold);

 private:
  void rebuild_scoring_baseline();

  KldDetectorConfig config_;
  std::optional<stats::Histogram> histogram_;
  std::vector<double> baseline_;   // p(X^(j)), raw
  std::vector<double> scoring_;    // epsilon-smoothed baseline used to score
  std::vector<double> k_training_; // K_i
  double threshold_ = 0.0;
};

}  // namespace fdeta::core
