// The detector vocabulary: every registered family's config, the options
// bundle that carries them through the serving layers, and the per-bin
// explanation of a scored week.
//
// The KLD detector (Section VII-D) is the paper's main contribution.  For
// each consumer the M x 336 training matrix X (one row per week) is
// histogrammed with B bins; the same frozen bin edges give each training
// week X_i a distribution, and K_i = D_KL(X_i || X) in bits (eq. 12) forms
// the KLD distribution.  A new week is anomalous when its divergence K_A
// exceeds the (1 - significance) quantile of {K_i}.  The three registered
// families differ only in which readings of a week feed that histogram:
// "kld" the whole week, "kld-lite" k selected slots, "ckld" one histogram
// per price group.  core::DetectorFleet (detector_fleet.h) fits, scores,
// explains and stores all three.
//
// Header order follows the dependencies: this file, then the fleet
// (detector_fleet.h), then the registry (detector_registry.h), which needs
// only this file.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "pricing/tariff.h"

namespace fdeta::core {

/// The most bins a KLD histogram may have: fit, --detector-opt and the
/// checkpoint decoder all read this one bound, so a model that fits always
/// restores.
inline constexpr std::size_t kMaxKldBins = std::size_t{1} << 20;

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
  /// clamping).  Training weeks are in support by construction, so
  /// thresholds are unaffected either way.  Set false for the paper's plain
  /// clamping semantics.
  bool exclude_out_of_support = true;
};

/// The one KLD config check: throws InvalidArgument unless 2 <= bins <=
/// kMaxKldBins, significance is in (0,1) and epsilon is finite and >= 0.
void validate_kld_config(const KldDetectorConfig& config);

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

/// The price-conditioned KLD detector, "ckld" (Section VIII-F3).  The
/// Optimal Swap attack changes only the temporal ordering of readings, so
/// the unconditioned detector is blind to it; conditioning runs eq. (12)
/// within each price group, and a week is anomalous if ANY group's
/// divergence exceeds that group's training threshold.
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

/// Knobs for every registered family, bundled so pipeline/monitor configs
/// can carry one value whatever detector they run.  `kld` feeds "kld",
/// "ckld" (bins/significance/epsilon/out-of-support carry over; grouping is
/// the Nightsaver peak/off-peak calendar) and the histogram half of
/// "kld-lite".
struct DetectorOptions {
  KldDetectorConfig kld{};
  /// k of the feature-reduced "lightweight" KLD detector, "kld-lite":
  /// slot-of-week positions kept per week (1..336).  *Lightweight LSTM Model
  /// for Energy Theft Detection via Input Data Reduction* (PAPERS.md) shows
  /// that reduced weekly inputs can hold a detector's operating point.  Fit
  /// keeps the k positions of highest training variance (ties to the lower
  /// slot) and scores one histogram over those k readings of every week;
  /// bench/ablation_input_reduction sweeps k (EXPERIMENTS.md).
  std::size_t reduced_slots = 48;
};

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

}  // namespace fdeta::core
