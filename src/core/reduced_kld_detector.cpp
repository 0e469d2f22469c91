#include "core/reduced_kld_detector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "persist/binary_io.h"
#include "stats/kl_divergence.h"
#include "stats/quantile.h"

namespace fdeta::core {

namespace {

void validate_config(const ReducedKldDetectorConfig& config) {
  require(config.selected_slots >= 1 &&
              config.selected_slots <= static_cast<std::size_t>(kSlotsPerWeek),
          "ReducedKldDetector: selected_slots must be in [1, 336]");
  require(config.kld.bins >= 2, "ReducedKldDetector: need at least two bins");
  require(config.kld.significance > 0.0 && config.kld.significance < 1.0,
          "ReducedKldDetector: significance must be in (0,1)");
  require(config.kld.epsilon >= 0.0,
          "ReducedKldDetector: epsilon must be >= 0");
}

}  // namespace

ReducedKldDetector::ReducedKldDetector(ReducedKldDetectorConfig config)
    : config_(config) {
  validate_config(config_);
}

void ReducedKldDetector::rebuild_scoring_baseline() {
  if (config_.kld.epsilon <= 0.0) {
    scoring_ = baseline_;  // paper-exact: infinities on out-of-support mass
    return;
  }
  scoring_.resize(baseline_.size());
  const double norm =
      1.0 + config_.kld.epsilon * static_cast<double>(baseline_.size());
  for (std::size_t j = 0; j < baseline_.size(); ++j) {
    scoring_[j] = (baseline_[j] + config_.kld.epsilon) / norm;
  }
}

void ReducedKldDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "ReducedKldDetector: training must be whole weeks");
  const std::size_t weeks = training.size() / kSlotsPerWeek;
  require(weeks >= 4, "ReducedKldDetector: need at least four training weeks");
  const std::size_t width = static_cast<std::size_t>(kSlotsPerWeek);

  // Per-slot-of-week variance across the training weeks: the slots that vary
  // carry the distribution's information; constant slots contribute one
  // fixed histogram count per week and can never separate weeks.
  std::vector<double> variance(width, 0.0);
  for (std::size_t s = 0; s < width; ++s) {
    double mean = 0.0;
    for (std::size_t w = 0; w < weeks; ++w) mean += training[w * width + s];
    mean /= static_cast<double>(weeks);
    double ss = 0.0;
    for (std::size_t w = 0; w < weeks; ++w) {
      const double d = training[w * width + s] - mean;
      ss += d * d;
    }
    variance[s] = ss / static_cast<double>(weeks);
  }

  // Top-k by (variance desc, slot asc): fully deterministic selection.
  std::vector<std::uint32_t> order(width);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (variance[a] != variance[b]) {
                       return variance[a] > variance[b];
                     }
                     return a < b;
                   });
  selected_.assign(order.begin(),
                   order.begin() +
                       static_cast<std::ptrdiff_t>(config_.selected_slots));
  std::sort(selected_.begin(), selected_.end());

  // Reduced M x k training matrix, week-major; edges frozen over all of it.
  const std::size_t k = selected_.size();
  std::vector<double> reduced(weeks * k);
  for (std::size_t w = 0; w < weeks; ++w) {
    for (std::size_t j = 0; j < k; ++j) {
      reduced[w * k + j] = training[w * width + selected_[j]];
    }
  }
  histogram_.emplace(reduced, config_.kld.bins);
  baseline_ = histogram_->probabilities(reduced);
  rebuild_scoring_baseline();

  k_training_.clear();
  k_training_.reserve(weeks);
  for (std::size_t w = 0; w < weeks; ++w) {
    const std::span<const double> week{reduced.data() + w * k, k};
    const auto p = histogram_->probabilities(week);
    k_training_.push_back(stats::kl_divergence_bits(p, scoring_));
  }
  threshold_ = stats::quantile(k_training_, 1.0 - config_.kld.significance);
  calibration_ = ScoreCalibration::from_reference(k_training_, threshold_,
                                                  config_.kld.significance);
}

void ReducedKldDetector::gather(std::span<const Kw> week, SlotIndex first_slot,
                                std::span<double> out) const {
  require(week.size() == static_cast<std::size_t>(kSlotsPerWeek),
          "ReducedKldDetector: week must be kSlotsPerWeek readings");
  const std::size_t width = static_cast<std::size_t>(kSlotsPerWeek);
  const std::size_t offset = static_cast<std::size_t>(first_slot) % width;
  for (std::size_t j = 0; j < selected_.size(); ++j) {
    // week[i] holds absolute slot first_slot + i, so slot-of-week s lives at
    // index (s - offset) mod width; offset is 0 for aligned weeks.
    const std::size_t i = (selected_[j] + width - offset) % width;
    out[j] = week[i];
  }
}

double ReducedKldDetector::raw_score_week(std::span<const Kw> week,
                                          SlotIndex first_slot) const {
  require(histogram_.has_value(), "ReducedKldDetector: fit() not called");
  thread_local std::vector<double> values;
  thread_local std::vector<double> p;
  values.resize(selected_.size());
  gather(week, first_slot, values);
  p.resize(config_.kld.bins);
  histogram_->probabilities_into(values, p,
                                 config_.kld.exclude_out_of_support);
  return stats::kl_divergence_bits(p, scoring_);
}

double ReducedKldDetector::raw_decision_threshold() const {
  require(histogram_.has_value(), "ReducedKldDetector: fit() not called");
  return threshold_;
}

KldExplanation ReducedKldDetector::raw_explain_week(std::span<const Kw> week,
                                                    SlotIndex first_slot) const {
  require(histogram_.has_value(), "ReducedKldDetector: fit() not called");
  std::vector<double> values(selected_.size());
  gather(week, first_slot, values);
  std::vector<double> p(config_.kld.bins);
  histogram_->probabilities_into(values, p,
                                 config_.kld.exclude_out_of_support);
  const std::vector<double>& edges = histogram_->edges();

  KldExplanation out;
  out.threshold = threshold_;
  out.bins.reserve(p.size());
  // Mirror kl_divergence_bits term by term so the bits sum is bit-identical
  // to score_week(week), clamp included.
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

const std::vector<std::uint32_t>& ReducedKldDetector::selected_slots() const {
  require(histogram_.has_value(), "ReducedKldDetector: fit() not called");
  return selected_;
}

const std::vector<double>& ReducedKldDetector::training_divergences() const {
  require(histogram_.has_value(), "ReducedKldDetector: fit() not called");
  return k_training_;
}

std::string ReducedKldDetector::config_fingerprint() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "kld-lite(k=%zu,bins=%zu,sig=%.17g,eps=%.17g,oos=%d)",
                config_.selected_slots, config_.kld.bins,
                config_.kld.significance, config_.kld.epsilon,
                config_.kld.exclude_out_of_support ? 1 : 0);
  return buf;
}

void ReducedKldDetector::save_state(persist::Encoder& enc) const {
  require(histogram_.has_value(),
          "ReducedKldDetector::save_state: fit() not called");
  enc.u64(config_.selected_slots);
  enc.u64(config_.kld.bins);
  enc.f64(config_.kld.significance);
  enc.f64(config_.kld.epsilon);
  enc.u8(config_.kld.exclude_out_of_support ? 1 : 0);
  for (const std::uint32_t s : selected_) enc.u32(s);
  histogram_->save(enc);
  enc.doubles(baseline_);
  enc.doubles(k_training_);
  enc.f64(threshold_);
}

void ReducedKldDetector::restore_state(persist::Decoder& dec) {
  ReducedKldDetectorConfig config;
  config.selected_slots = dec.count("kld-lite slots", kSlotsPerWeek);
  config.kld.bins = dec.count("kld-lite bins", 1u << 20);
  config.kld.significance = dec.f64();
  config.kld.epsilon = dec.f64();
  config.kld.exclude_out_of_support = dec.u8() != 0;
  validate_config(config);

  std::vector<std::uint32_t> selected(config.selected_slots);
  for (auto& s : selected) {
    s = dec.u32();
    if (s >= static_cast<std::uint32_t>(kSlotsPerWeek)) {
      throw DataError("checkpoint: kld-lite slot index out of range");
    }
  }
  for (std::size_t j = 1; j < selected.size(); ++j) {
    if (selected[j] <= selected[j - 1]) {
      throw DataError("checkpoint: kld-lite slots not strictly ascending");
    }
  }

  stats::Histogram histogram = stats::Histogram::load(dec);
  if (histogram.bin_count() != config.kld.bins) {
    throw DataError("checkpoint: kld-lite histogram bin count mismatch");
  }
  std::vector<double> baseline = dec.doubles("kld-lite baseline", 1u << 20);
  if (baseline.size() != config.kld.bins) {
    throw DataError("checkpoint: kld-lite baseline size mismatch");
  }
  std::vector<double> k_training =
      dec.doubles("kld-lite training K", 1u << 20);
  if (k_training.empty()) {
    throw DataError("checkpoint: kld-lite training divergences missing");
  }
  const double threshold = dec.f64();

  config_ = config;
  selected_ = std::move(selected);
  histogram_.emplace(std::move(histogram));
  baseline_ = std::move(baseline);
  // The smoothed scoring copy is derived deterministically from the raw
  // baseline, so recomputing it reproduces the saved detector bit-exactly.
  rebuild_scoring_baseline();
  k_training_ = std::move(k_training);
  threshold_ = threshold;
  // Pure function of the persisted parts: restored calibration is bit-exact.
  calibration_ = ScoreCalibration::from_reference(k_training_, threshold_,
                                                  config_.kld.significance);
}

}  // namespace fdeta::core
