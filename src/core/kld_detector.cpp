#include "core/kld_detector.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.h"
#include "persist/binary_io.h"
#include "stats/kl_divergence.h"
#include "stats/quantile.h"

namespace fdeta::core {

namespace {

void validate_config(const KldDetectorConfig& config) {
  require(config.bins >= 2, "KldDetector: need at least two bins");
  require(config.significance > 0.0 && config.significance < 1.0,
          "KldDetector: significance must be in (0,1)");
  require(config.epsilon >= 0.0, "KldDetector: epsilon must be >= 0");
}

}  // namespace

KldDetector::KldDetector(KldDetectorConfig config) : config_(config) {
  validate_config(config_);
}

void KldDetector::rebuild_scoring_baseline() {
  if (config_.epsilon <= 0.0) {
    scoring_ = baseline_;  // paper-exact: infinities on out-of-support mass
    return;
  }
  scoring_.resize(baseline_.size());
  const double norm =
      1.0 + config_.epsilon * static_cast<double>(baseline_.size());
  for (std::size_t j = 0; j < baseline_.size(); ++j) {
    scoring_[j] = (baseline_[j] + config_.epsilon) / norm;
  }
}

void KldDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "KldDetector: training must be whole weeks");
  const std::size_t weeks = training.size() / kSlotsPerWeek;
  require(weeks >= 4, "KldDetector: need at least four training weeks");

  // X distribution over the full training matrix; edges frozen here.
  histogram_.emplace(training, config_.bins);
  baseline_ = histogram_->probabilities(training);
  rebuild_scoring_baseline();

  // K_i for every training week against the same edges (eq. 12).
  k_training_.clear();
  k_training_.reserve(weeks);
  for (std::size_t w = 0; w < weeks; ++w) {
    const std::span<const Kw> week{training.data() + w * kSlotsPerWeek,
                                   static_cast<std::size_t>(kSlotsPerWeek)};
    const auto p = histogram_->probabilities(week);
    k_training_.push_back(stats::kl_divergence_bits(p, scoring_));
  }
  threshold_ = stats::quantile(k_training_, 1.0 - config_.significance);
  calibration_ = ScoreCalibration::from_reference(k_training_, threshold_,
                                                  config_.significance);
}

double KldDetector::score(std::span<const Kw> week) const {
  KldScratch scratch;
  return score(week, scratch);
}

double KldDetector::raw_score_week(std::span<const Kw> week,
                                   SlotIndex /*first_slot*/) const {
  thread_local KldScratch scratch;  // keeps fleet hot paths allocation-free
  return score(week, scratch);
}

std::string KldDetector::config_fingerprint() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "kld(bins=%zu,sig=%.17g,eps=%.17g,oos=%d)",
                config_.bins, config_.significance, config_.epsilon,
                config_.exclude_out_of_support ? 1 : 0);
  return buf;
}

double KldDetector::score(std::span<const Kw> week, KldScratch& scratch) const {
  require(histogram_.has_value(), "KldDetector: fit() not called");
  scratch.p.resize(config_.bins);
  histogram_->probabilities_into(week, scratch.p,
                                 config_.exclude_out_of_support);
  return stats::kl_divergence_bits(scratch.p, scoring_);
}

KldExplanation KldDetector::explain(std::span<const Kw> week) const {
  require(histogram_.has_value(), "KldDetector: fit() not called");
  std::vector<double> p(config_.bins);
  histogram_->probabilities_into(week, p, config_.exclude_out_of_support);
  const std::vector<double>& edges = histogram_->edges();

  KldExplanation out;
  out.threshold = threshold_;
  out.bins.reserve(p.size());
  // Mirror kl_divergence_bits term by term so the bits sum is bit-identical
  // to score(week), clamp included.
  double total = 0.0;
  bool infinite = false;
  for (std::size_t j = 0; j < p.size(); ++j) {
    KldBinContribution c;
    c.bin = j;
    c.lower = edges[j];
    c.upper = edges[j + 1];
    c.p = p[j];
    c.q = scoring_[j];
    if (p[j] > 0.0) {
      if (scoring_[j] <= 0.0) {
        c.bits = std::numeric_limits<double>::infinity();
        infinite = true;
      } else {
        c.bits = p[j] * std::log2(p[j] / scoring_[j]);
        total += c.bits;
      }
    }
    out.bins.push_back(c);
  }
  if (infinite) {
    out.score = std::numeric_limits<double>::infinity();
  } else {
    out.score = total < 0.0 && total > -1e-12 ? 0.0 : total;
  }
  return out;
}

bool KldDetector::flag_week(std::span<const Kw> week,
                            SlotIndex /*first_slot*/) const {
  return score(week) > threshold_;
}

double KldDetector::threshold() const {
  require(histogram_.has_value(), "KldDetector: fit() not called");
  return threshold_;
}

const std::vector<double>& KldDetector::training_divergences() const {
  require(histogram_.has_value(), "KldDetector: fit() not called");
  return k_training_;
}

const stats::Histogram& KldDetector::histogram() const {
  require(histogram_.has_value(), "KldDetector: fit() not called");
  return *histogram_;
}

const std::vector<double>& KldDetector::baseline_distribution() const {
  require(histogram_.has_value(), "KldDetector: fit() not called");
  return baseline_;
}

void KldDetector::save_state(persist::Encoder& enc) const {
  require(histogram_.has_value(), "KldDetector::save_state: fit() not called");
  enc.u64(config_.bins);
  enc.f64(config_.significance);
  enc.f64(config_.epsilon);
  enc.u8(config_.exclude_out_of_support ? 1 : 0);
  histogram_->save(enc);
  enc.doubles(baseline_);
  enc.doubles(k_training_);
  enc.f64(threshold_);
}

void KldDetector::restore_state(persist::Decoder& dec) {
  KldDetectorConfig config;
  config.bins = dec.count("kld bins", 1u << 20);
  config.significance = dec.f64();
  config.epsilon = dec.f64();
  config.exclude_out_of_support = dec.u8() != 0;
  stats::Histogram histogram = stats::Histogram::load(dec);
  std::vector<double> baseline = dec.doubles("kld baseline", 1u << 20);
  std::vector<double> k_training = dec.doubles("kld training K", 1u << 20);
  const double threshold = dec.f64();

  *this = from_fitted_parts(config, histogram.edges(), std::move(baseline),
                            std::move(k_training), threshold);
}

KldDetector KldDetector::from_fitted_parts(KldDetectorConfig config,
                                           std::vector<double> edges,
                                           std::vector<double> baseline,
                                           std::vector<double> k_training,
                                           double threshold) {
  stats::Histogram histogram{std::move(edges)};
  if (histogram.bin_count() != config.bins) {
    throw DataError("checkpoint: kld histogram bin count mismatch");
  }
  if (baseline.size() != config.bins) {
    throw DataError("checkpoint: kld baseline size mismatch");
  }
  if (k_training.empty()) {
    throw DataError("checkpoint: kld training divergences missing");
  }

  KldDetector out(config);
  out.histogram_.emplace(std::move(histogram));
  out.baseline_ = std::move(baseline);
  // The smoothed scoring copy is derived deterministically from the raw
  // baseline, so recomputing it reproduces the saved detector bit-exactly.
  out.rebuild_scoring_baseline();
  out.k_training_ = std::move(k_training);
  out.threshold_ = threshold;
  // The calibration is a pure function of the persisted parts, so restored
  // detectors calibrate bit-exactly like the detector that was saved.
  out.calibration_ = ScoreCalibration::from_reference(
      out.k_training_, out.threshold_, config.significance);
  return out;
}

}  // namespace fdeta::core
