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
// KldModel below is that computation, once.  The three histogram families
// differ only in which readings of a week feed it: KldDetector runs one model
// over the whole week, ReducedKldDetector ("kld-lite") one over its k
// selected slots, ConditionedKldDetector ("ckld") one per price group.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
  /// clamping; see KldModel::score).  Training weeks are in support by
  /// construction, so thresholds are unaffected either way.  Set false for
  /// the paper's plain clamping semantics.
  bool exclude_out_of_support = true;
};

// KldBinContribution / KldExplanation live in detector_plugin.h (the plugin
// interface's explanation vocabulary is the KLD families' bin breakdown).

/// The fitted state of one eq.-(12) histogram: the frozen bin edges, the raw
/// baseline p(X^(j)) and its epsilon-smoothed scoring copy, the training
/// divergences K_i and the (1 - significance) threshold.
class KldModel {
 public:
  /// The one KLD config check: throws InvalidArgument unless bins >= 2,
  /// significance is in (0,1) and epsilon is finite and >= 0.
  static void validate(const KldDetectorConfig& config);

  /// Fits over M training rows of `width` readings each, row-major: edges
  /// frozen over all M x width readings, K_i = score(row i), threshold the
  /// (1 - significance) quantile of the K_i.  `config` must pass validate().
  static KldModel fit(std::span<const double> rows, std::size_t width,
                      const KldDetectorConfig& config);

  /// Reassembles a fitted model from decoded parts; the smoothed scoring
  /// copy is rebuilt, so it scores bit-exactly like the model that was
  /// saved.  The one check of decoded parts: B + 1 finite ascending edges, B
  /// finite baseline masses >= 0, finite K_i (at least one unless
  /// `k_training_optional`) and a finite threshold; anything else throws
  /// DataError.  `config` must pass validate().
  static KldModel from_parts(const KldDetectorConfig& config,
                             std::vector<double> edges,
                             std::vector<double> baseline,
                             std::vector<double> k_training, double threshold,
                             bool k_training_optional = false);

  /// Count words of one counted window: the B bin counts, then the number
  /// of readings below and above the frozen support.  A scored week is seen
  /// only through these counts, so a caller may count a window once and
  /// keep it current one reading at a time.
  std::size_t count_words() const { return scoring_.size() + 2; }

  /// The count word a reading moves: its bin when inside the frozen support
  /// [edges.front(), edges.back()] (NaN included, which bin_of puts in the
  /// last bin), B below the support and B + 1 above it.
  std::size_t count_index(double value) const {
    const std::vector<double>& edges = histogram_.edges();
    if (value < edges.front()) return scoring_.size();
    if (value > edges.back()) return scoring_.size() + 1;
    return histogram_.bin_of(value);
  }

  /// Zeroes `counts` (count_words() words) and counts `values` into it;
  /// at most 65535 values.
  void count(std::span<const double> values,
             std::span<std::uint16_t> counts) const;

  /// K_A of counted readings.  The week distribution p is the one
  /// out-of-support rule: with exclude_out_of_support, the in-support bins
  /// normalised over the in-support count - unless no reading is in
  /// support, when (as without exclusion) every reading is clamped into the
  /// outer bins and p is normalised over all of them.  Finite for any
  /// counts when epsilon > 0; with epsilon = 0 it is +infinity whenever p
  /// has mass where the training distribution has none.  Allocation-free.
  double score(std::span<const std::uint16_t> counts) const;

  /// Per-bin breakdown of score(counts): terms accumulate in
  /// kl_divergence_bits order, so the bits sum reproduces the score exactly.
  /// The header carries the score and threshold().
  KldExplanation explain(std::span<const std::uint16_t> counts) const;

  const stats::Histogram& histogram() const { return histogram_; }
  /// The raw eq.-(12) p(X^(j)); epsilon smoothing applies only to the
  /// internal scoring copy.
  const std::vector<double>& baseline() const { return baseline_; }
  /// K_i, the "KLD distribution" of Fig. 4b.
  const std::vector<double>& training_divergences() const {
    return k_training_;
  }
  double threshold() const { return threshold_; }

 private:
  KldModel(const KldDetectorConfig& config, stats::Histogram histogram,
           std::vector<double> baseline);

  /// p of eq. (12) from counts into `p` (B values), by the rule score()
  /// documents.
  void probabilities(std::span<const std::uint16_t> counts,
                     std::span<double> p) const;

  stats::Histogram histogram_;
  std::vector<double> baseline_;    // p(X^(j)), raw
  std::vector<double> scoring_;     // epsilon-smoothed baseline used to score
  std::vector<double> k_training_;  // K_i
  double threshold_ = 0.0;
  bool exclude_out_of_support_ = true;
};

/// A fitted detector's stored state, as views into it: what
/// DetectorFleet::save writes for every family (DESIGN.md section 9).
struct FittedParts {
  /// One model per price group: G of them, 1 for kld and kld-lite.
  std::span<const KldModel> models{};
  /// The calibration reference in fit order: K_i for kld and kld-lite, the
  /// training margins for ckld.
  std::span<const double> reference{};
  /// kld-lite's selected slot-of-week positions; empty otherwise.
  std::span<const std::uint32_t> positions{};
};

/// One member's rows of a decoded DetectorFleet block, as views: G rows of
/// B + 1 edges, G rows of B baseline masses, the reference, G thresholds and
/// the positions, laid out as FittedParts describes them.
struct MemberRows {
  std::span<const double> edges;
  std::span<const double> baselines;
  std::span<const double> reference;
  std::span<const double> thresholds;
  std::span<const std::uint32_t> positions;
};

/// The number of whole weeks in `training`; throws InvalidArgument unless
/// it is a whole number of at least four weeks.
std::size_t training_weeks(std::span<const Kw> training);

/// The slot-of-week of week[0]: week[i] of a slot-aligned week holds
/// slot-of-week (offset + i) mod kSlotsPerWeek.  Throws InvalidArgument
/// unless `week` is kSlotsPerWeek readings (the families that count part of
/// a week by slot-of-week).
std::size_t week_offset(std::span<const Kw> week, SlotIndex first_slot);

/// Per-thread count scratch of `words` words, contents unspecified: keeps
/// whole-week scoring allocation-free.
std::span<std::uint16_t> count_scratch(std::size_t words);

class KldDetector final : public ScoringDetector {
 public:
  explicit KldDetector(KldDetectorConfig config = {});

  const KldDetectorConfig& config() const { return config_; }
  void fit(std::span<const Kw> training) override;

  // --- ScoringDetector plugin surface ------------------------------------
  /// score(week) through the plugin interface, allocation-free.  The
  /// calibration reference is the training K_i distribution, so the base
  /// class's score_week reports the week's anomaly quantile among them.
  double raw_score_week(std::span<const Kw> week,
                        SlotIndex first_slot = 0) const override;
  double raw_decision_threshold() const override { return threshold(); }
  KldExplanation raw_explain_week(std::span<const Kw> week,
                                  SlotIndex first_slot = 0) const override {
    (void)first_slot;
    return explain(week);
  }
  /// Every position counts: the plain KLD is order-insensitive.
  std::size_t count_words() const override { return model().count_words(); }
  void count_reading(std::span<std::uint16_t> counts, std::size_t position,
                     Kw value, int delta) const override;
  double raw_score_counts(
      std::span<const std::uint16_t> counts) const override {
    return model().score(counts);
  }
  FittedParts fitted_parts() const override;
  void restore_parts(const MemberRows& rows) override;

  /// K_A: the divergence score of a week (any number of readings up to
  /// 65535).
  double score(std::span<const Kw> week) const { return raw_score_week(week); }

  /// Per-bin breakdown of score(week): which consumption bins drove the
  /// divergence and by how many bits.
  KldExplanation explain(std::span<const Kw> week) const;

  /// The decision threshold (the (1-alpha) quantile of training K_i).
  double threshold() const { return model().threshold(); }

  /// The fitted model: frozen histogram, baseline X distribution (Fig. 4a)
  /// and training K_i (Fig. 4b).  Throws InvalidArgument before fit().
  const KldModel& model() const;

 private:
  /// Installs a fitted model and its calibration (a pure function of the
  /// model, so restored detectors calibrate bit-exactly).
  void adopt(KldModel model);

  KldDetectorConfig config_;
  std::optional<KldModel> model_;
};

}  // namespace fdeta::core
