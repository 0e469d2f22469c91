// One registry family's fitted detectors, stored as rows of flat arrays.
//
// The paper fits its KLD detector once per consumer and scores every new
// week at the control center (Sections VII-A, VII-D).  FdetaPipeline and
// OnlineMonitor run one detector per consumer, hierarchy::FeederMonitor one
// per scored feeder node; each owns exactly one DetectorFleet for them, and
// the standalone family classes (kld_detector.h and its siblings) hold a
// one-member fleet.  So there is one storage and one arithmetic whether a
// family serves one consumer or 34,000.
//
// A member is a row index, not an object.  The fleet stores each fitted
// field once, as one array across its members, exactly as its checkpoint
// block lays them out (DESIGN.md §9): with G price groups (1 for kld and
// kld-lite), B bins, W training weeks and k kld-lite slots,
//
//   edges        count x G x (B + 1)   frozen bin edges
//   baselines    count x G x B         the raw eq.-(12) p(X^(j))
//   references   count x W             the calibration reference in fit
//                                      order: K_i, or ckld's margins
//   thresholds   count x G             (1 - significance) quantiles
//   positions    count x k             kld-lite's selected slots
//
// and the config (plus ckld's slot->group table) once.  Of the values
// derived from those rows, the epsilon-smoothed baseline and the threshold's
// calibration position are recomputed on use, while the bin-guess grid -
// one slope per histogram, which turns a reading into its bin without a
// division on the per-reading count path - is kept as one more count x G
// array, derived on fit and restore and never stored in a checkpoint.
// Distinct members may be fitted concurrently; a fitted fleet is safe to
// score from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/detector_config.h"

namespace fdeta::persist {
class Decoder;
class Encoder;
}  // namespace fdeta::persist

namespace fdeta::core {

/// The calibrated anomaly quantile in [0, 1] of a family-native raw score:
/// its position among the `reference` raw scores (the family's training
/// scores, in any order), anchored at the family's `raw_threshold`.
///
/// The map is monotone non-decreasing and FLAG-PRESERVING by construction:
///
///   calibrated_score(..., raw) > 1 - significance   iff   raw > raw_threshold
///
/// which is what lets the decision threshold be the uniform 1 - significance
/// across every family without moving a single flag decision.  Raw scores at
/// or below the raw threshold land in [0, 1 - significance] by their
/// position in the reference (linear between sorted reference points, the
/// left inverse of the Hyndman-Fan-7 quantile); raw scores above it land in
/// (1 - significance, 1].  A pure function of its arguments, so restored
/// checkpoints and sharded fleets reproduce calibrated scores bit-exactly.
/// NaN propagates; +-infinity map to the segment extremes.  Throws
/// InvalidArgument on an empty reference or a significance outside (0, 1).
double calibrated_score(std::span<const double> reference,
                        double raw_threshold, double significance, double raw);

/// The number of whole weeks in `training`; throws InvalidArgument unless
/// it is a whole number of at least four weeks.
std::size_t training_weeks(std::span<const Kw> training);

class DetectorFleet {
 public:
  /// An empty fleet of the default "kld" family.
  DetectorFleet() = default;

  /// An unfitted fleet of `count` members of the registered `family`, each
  /// to be fitted on `weeks` training weeks.  Throws std::invalid_argument
  /// on an unknown family and InvalidArgument on options the family rejects.
  DetectorFleet(std::string family, DetectorOptions options,
                std::size_t count, std::size_t weeks);

  /// Memberless fleets of one family's config, for the standalone family
  /// classes; a ckld fleet may run any calendar (e.g. RTP bands).  Throw
  /// InvalidArgument on a config the family rejects.
  explicit DetectorFleet(const KldDetectorConfig& config);
  explicit DetectorFleet(const ConditionedKldDetectorConfig& config);
  explicit DetectorFleet(const ReducedKldDetectorConfig& config);

  /// Drops every fitted row and sizes the fleet for `count` members of
  /// `weeks` training weeks each.  Not safe concurrently with anything.
  void reset(std::size_t count, std::size_t weeks);

  /// Fits member i on `training`, writing its rows in place.  Throws
  /// InvalidArgument unless `training` holds the fleet's training weeks.
  /// Safe concurrently for distinct i.
  void fit(std::size_t i, std::span<const Kw> training);

  std::size_t size() const { return count_; }
  /// G: ckld's price groups, 1 for kld and kld-lite.
  std::size_t groups() const { return groups_; }
  const std::string& family() const { return family_; }
  const DetectorOptions& options() const { return options_; }
  /// ckld's slot->group table; empty for the other families.
  std::span<const std::uint32_t> calendar() const { return calendar_; }

  // --- Scoring member i (fitted or restored) -------------------------------
  // `first_slot` is the week's absolute slot index (weeks are slot-aligned);
  // kld reads a week of any length up to 65535 readings and ignores it,
  // ckld and kld-lite need kSlotsPerWeek readings.

  /// The family-native score: the divergence in bits, or for ckld the worst
  /// group margin max_g(K_g - threshold_g), so ckld's raw threshold is 0
  /// and raw > threshold is its "any group over its own threshold" rule.
  double raw_score_week(std::size_t i, std::span<const Kw> week,
                        SlotIndex first_slot = 0) const;
  /// The family-native decision threshold: a week is anomalous iff its raw
  /// score exceeds it.
  double raw_decision_threshold(std::size_t i) const;
  /// The calibrated score of a week: calibrated_score over member i's
  /// reference, comparable across families.
  double score_week(std::size_t i, std::span<const Kw> week,
                    SlotIndex first_slot = 0) const;
  /// The uniform calibrated decision threshold: 1 - significance.
  double decision_threshold() const {
    return 1.0 - options_.kld.significance;
  }
  /// A raw score mapped onto the calibrated scale.
  double calibrate(std::size_t i, double raw) const;

  /// The eq.-(12) per-bin breakdown of a week on the raw scale: the bins'
  /// bits sum to the raw score.  For ckld, the worst-margin group's bins
  /// under a header rebased to the margin scale (score == raw_score_week,
  /// threshold == 0).
  KldExplanation raw_explain_week(std::size_t i, std::span<const Kw> week,
                                  SlotIndex first_slot = 0) const;
  /// raw_explain_week with the calibrated header (score_week and
  /// decision_threshold exactly) and the raw one in raw_score/raw_threshold.
  KldExplanation explain_week(std::size_t i, std::span<const Kw> week,
                              SlotIndex first_slot = 0) const;
  /// Per-group divergences of a week, and their breakdowns (each header
  /// carrying the group's divergence and threshold): G of each.
  std::vector<double> group_scores(std::size_t i, std::span<const Kw> week,
                                   SlotIndex first_slot = 0) const;
  std::vector<KldExplanation> explain_groups(std::size_t i,
                                             std::span<const Kw> week,
                                             SlotIndex first_slot = 0) const;

  // --- Count contract ------------------------------------------------------
  // A week is seen only through per-bin counts: G blocks of B + 2 u16 words
  // (the B bins, then the readings below and above the frozen support), so
  // a caller can keep a window's counts current one reading at a time and
  // score the counts - a sliding rescore costs O(B), not a re-bin of 336
  // readings (OnlineMonitor's counted windows).

  /// G x (B + 2).
  std::size_t count_words() const { return groups_ * (options_.kld.bins + 2); }
  /// Zeroes `counts` and counts member i's readings of `week` into it: what
  /// raw_score_week scores.
  void count_week(std::size_t i, std::span<const Kw> week,
                  SlotIndex first_slot, std::span<std::uint16_t> counts) const;
  /// Moves one reading at slot-of-week `position` (in [0, kSlotsPerWeek))
  /// into (`delta` = +1) or out of (`delta` = -1) member i's `counts`; a
  /// kld-lite slot outside the member's selection leaves them unchanged.
  void count_reading(std::size_t i, std::span<std::uint16_t> counts,
                     std::size_t position, Kw value, int delta) const;
  /// The raw score of counted readings: bit-identical to raw_score_week of
  /// the week whose readings the counts hold.  Allocation-free.
  double raw_score_counts(std::size_t i,
                          std::span<const std::uint16_t> counts) const;
  /// calibrate(i, raw_score_counts(i, counts)).
  double score_counts(std::size_t i,
                      std::span<const std::uint16_t> counts) const;

  // --- Member i's fitted rows ----------------------------------------------
  /// Group g's B + 1 frozen edges and B raw baseline masses p(X^(j)).
  std::span<const double> edges(std::size_t i, std::size_t g = 0) const;
  std::span<const double> baseline(std::size_t i, std::size_t g = 0) const;
  /// The W calibration reference scores in fit order: the training K_i
  /// (the "KLD distribution" of Fig. 4b), or ckld's training margins.
  std::span<const double> reference(std::size_t i) const;
  /// Group g's (1 - significance) quantile of its training divergences.
  double threshold(std::size_t i, std::size_t g = 0) const {
    return thresholds_[i * groups_ + g];
  }

  /// Writes the fleet's checkpoint block; every member must be fitted.
  /// The config once (and ckld's slot->group table), then each array above
  /// as it is.
  void save(persist::Encoder& enc) const;

  /// Reads a save() block straight into a fleet's arrays, then checks every
  /// row in one pass on the shared pool (`threads` caps the parallelism).
  /// Every decoded config is validated here, and a ckld table must equal
  /// this build's calendar.  Throws DataError on any malformed block.
  static DetectorFleet restore(persist::Decoder& dec, std::size_t threads);

 private:
  /// The registered families, in the registry's canonical order.
  enum class Kind : std::uint8_t { kKld, kCkld, kKldLite };

  /// One member's fitted histogram, as views of its rows: the one count,
  /// score and explain arithmetic (detector_fleet.cpp).
  struct Histogram;
  Histogram histogram(std::size_t i, std::size_t g = 0) const;

  DetectorFleet(Kind kind, DetectorOptions options,
                std::vector<std::uint32_t> calendar);

  /// Throws DataError unless member i's decoded rows are a fitted model.
  void check_row(std::size_t i) const;

  std::string family_ = "kld";
  Kind kind_ = Kind::kKld;
  DetectorOptions options_{};
  std::vector<std::uint32_t> calendar_;  // ckld's slot->group table
  std::size_t groups_ = 1;
  std::size_t slots_ = 0;  // k: kld-lite positions per member
  std::size_t count_ = 0;
  std::size_t weeks_ = 0;
  std::vector<double> edges_;
  std::vector<double> baselines_;
  std::vector<double> references_;
  std::vector<double> thresholds_;
  std::vector<std::uint32_t> positions_;
  std::vector<double> scales_;  // count x G: bin_scale of each edges row
};

}  // namespace fdeta::core
