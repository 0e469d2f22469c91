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
//
// KldDetector is the "kld" family as a standalone core::Detector: a
// one-member DetectorFleet, whose arithmetic every family shares.
#pragma once

#include <span>

#include "core/detector_plugin.h"

namespace fdeta::core {

class KldDetector final : public ScoringDetector {
 public:
  /// Throws InvalidArgument on a config validate_kld_config rejects.
  explicit KldDetector(KldDetectorConfig config = {})
      : ScoringDetector(DetectorFleet(config)) {}

  const KldDetectorConfig& config() const { return fleet().options().kld; }

  /// K_A: the divergence score of a week (any number of readings up to
  /// 65535).
  double score(std::span<const Kw> week) const { return raw_score_week(week); }

  /// Per-bin breakdown of score(week): which consumption bins drove the
  /// divergence and by how many bits.
  KldExplanation explain(std::span<const Kw> week) const {
    return raw_explain_week(week);
  }

  /// The decision threshold (the (1-alpha) quantile of training K_i).
  double threshold() const { return raw_decision_threshold(); }

  /// The fitted model: the frozen bin edges, the baseline X distribution
  /// p(X^(j)) (Fig. 4a) and the training K_i (Fig. 4b).
  std::span<const double> edges() const { return fitted().edges(0); }
  std::span<const double> baseline() const { return fitted().baseline(0); }
  std::span<const double> training_divergences() const {
    return fitted().reference(0);
  }
};

}  // namespace fdeta::core
