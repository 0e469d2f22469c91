#include "core/kld_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "stats/kl_divergence.h"
#include "stats/quantile.h"

namespace fdeta::core {

namespace {

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

void KldModel::validate(const KldDetectorConfig& config) {
  require(config.bins >= 2, "KLD: need at least two bins");
  require(config.significance > 0.0 && config.significance < 1.0,
          "KLD: significance must be in (0,1)");
  require(std::isfinite(config.epsilon) && config.epsilon >= 0.0,
          "KLD: epsilon must be finite and >= 0");
}

KldModel::KldModel(const KldDetectorConfig& config, stats::Histogram histogram,
                   std::vector<double> baseline)
    : histogram_(std::move(histogram)),
      baseline_(std::move(baseline)),
      exclude_out_of_support_(config.exclude_out_of_support) {
  // Derived deterministically from the raw baseline, so a restored model
  // scores bit-exactly like the fitted one.
  if (config.epsilon <= 0.0) {
    scoring_ = baseline_;  // paper-exact: infinities on out-of-support mass
    return;
  }
  scoring_.resize(baseline_.size());
  const double norm =
      1.0 + config.epsilon * static_cast<double>(baseline_.size());
  for (std::size_t j = 0; j < baseline_.size(); ++j) {
    scoring_[j] = (baseline_[j] + config.epsilon) / norm;
  }
}

KldModel KldModel::fit(std::span<const double> rows, std::size_t width,
                       const KldDetectorConfig& config) {
  require(width > 0 && !rows.empty() && rows.size() % width == 0,
          "KldModel::fit: need one or more rows of equal width");
  // The X distribution over every row; edges frozen here.
  stats::Histogram histogram(rows, config.bins);
  std::vector<double> baseline = histogram.probabilities(rows);
  KldModel model(config, std::move(histogram), std::move(baseline));

  // K_i for every row against the same edges (eq. 12).  Training rows are
  // in support by construction, so scoring them bins exactly like the
  // paper's plain clamping.
  std::vector<double> k(rows.size() / width);
  std::vector<std::uint16_t> counts(model.count_words());
  for (std::size_t i = 0; i < k.size(); ++i) {
    model.count(rows.subspan(i * width, width), counts);
    k[i] = model.score(counts);
  }
  model.threshold_ = stats::quantile(k, 1.0 - config.significance);
  model.k_training_ = std::move(k);
  return model;
}

KldModel KldModel::from_parts(const KldDetectorConfig& config,
                              std::vector<double> edges,
                              std::vector<double> baseline,
                              std::vector<double> k_training, double threshold,
                              bool k_training_optional) {
  if (edges.size() != config.bins + 1) {
    throw DataError("checkpoint: kld histogram bin count mismatch");
  }
  if (!all_finite(edges) || !std::is_sorted(edges.begin(), edges.end())) {
    throw DataError("checkpoint: kld edges must be finite and ascending");
  }
  if (baseline.size() != config.bins) {
    throw DataError("checkpoint: kld baseline size mismatch");
  }
  if (!all_finite(baseline) ||
      std::any_of(baseline.begin(), baseline.end(),
                  [](double q) { return q < 0.0; })) {
    throw DataError("checkpoint: kld baseline must be finite and >= 0");
  }
  if (k_training.empty() && !k_training_optional) {
    throw DataError("checkpoint: kld training divergences missing");
  }
  if (!all_finite(k_training) || !std::isfinite(threshold)) {
    throw DataError(
        "checkpoint: kld training divergences and threshold must be finite");
  }
  KldModel model(config, stats::Histogram(std::move(edges)),
                 std::move(baseline));
  model.k_training_ = std::move(k_training);
  model.threshold_ = threshold;
  return model;
}

void KldModel::count(std::span<const double> values,
                     std::span<std::uint16_t> counts) const {
  require(counts.size() == count_words(), "KLD: count span size");
  require(values.size() <= std::numeric_limits<std::uint16_t>::max(),
          "KLD: at most 65535 readings per counted window");
  std::fill(counts.begin(), counts.end(), std::uint16_t{0});
  for (const double v : values) ++counts[count_index(v)];
}

void KldModel::probabilities(std::span<const std::uint16_t> counts,
                             std::span<double> p) const {
  const std::size_t bins = scoring_.size();
  require(counts.size() == count_words(), "KLD: count span size");
  std::uint32_t total = 0;
  for (std::size_t j = 0; j < bins; ++j) {
    p[j] = counts[j];
    total += counts[j];
  }
  if (!exclude_out_of_support_ || total == 0) {
    // Clamping: readings below the support join the lowest bin, readings
    // above it the highest - always without exclusion, and as the fallback
    // for a week with no in-support mass to normalise over (the outer bins
    // are then the only honest place for the mass, and the detector sees a
    // maximally anomalous week rather than a divide-by-zero).
    p[0] += counts[bins];
    p[bins - 1] += counts[bins + 1];
    total += counts[bins] + counts[bins + 1];
  }
  require(total > 0, "KLD: no readings counted");
  // Integer counts are exact in a double, so p does not depend on the order
  // the readings were counted in.
  const double n = static_cast<double>(total);
  for (double& x : p) x /= n;
}

double KldModel::score(std::span<const std::uint16_t> counts) const {
  thread_local std::vector<double> p;  // keeps fleet hot paths allocation-free
  p.resize(scoring_.size());
  probabilities(counts, p);
  return stats::kl_divergence_bits(p, scoring_);
}

KldExplanation KldModel::explain(std::span<const std::uint16_t> counts) const {
  std::vector<double> p(scoring_.size());
  probabilities(counts, p);
  const std::vector<double>& edges = histogram_.edges();

  KldExplanation out;
  out.threshold = threshold_;
  out.bins.reserve(p.size());
  // Mirror kl_divergence_bits term by term so the bits sum is bit-identical
  // to score(values), clamp included.
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

std::size_t training_weeks(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "KLD: training must be whole weeks");
  const std::size_t weeks = training.size() / kSlotsPerWeek;
  require(weeks >= 4, "KLD: need at least four training weeks");
  return weeks;
}

std::size_t week_offset(std::span<const Kw> week, SlotIndex first_slot) {
  constexpr std::size_t width = kSlotsPerWeek;
  if (week.size() != width) {
    throw InvalidArgument("KLD: week must be kSlotsPerWeek readings");
  }
  return static_cast<std::size_t>(first_slot) % width;
}

std::span<std::uint16_t> count_scratch(std::size_t words) {
  thread_local std::vector<std::uint16_t> scratch;
  scratch.resize(words);
  return scratch;
}

KldDetector::KldDetector(KldDetectorConfig config) : config_(config) {
  KldModel::validate(config_);
}

void KldDetector::adopt(KldModel model) {
  model_.emplace(std::move(model));
  calibration_ = ScoreCalibration::from_reference(
      model_->training_divergences(), model_->threshold(),
      config_.significance);
}

void KldDetector::fit(std::span<const Kw> training) {
  training_weeks(training);
  adopt(KldModel::fit(training, kSlotsPerWeek, config_));
}

const KldModel& KldDetector::model() const {
  if (!model_) throw InvalidArgument("KldDetector: fit() not called");
  return *model_;
}

double KldDetector::raw_score_week(std::span<const Kw> week,
                                   SlotIndex /*first_slot*/) const {
  const KldModel& m = model();
  const std::span<std::uint16_t> counts = count_scratch(m.count_words());
  m.count(week, counts);
  return m.score(counts);
}

KldExplanation KldDetector::explain(std::span<const Kw> week) const {
  const KldModel& m = model();
  std::vector<std::uint16_t> counts(m.count_words());
  m.count(week, counts);
  return m.explain(counts);
}

void KldDetector::count_reading(std::span<std::uint16_t> counts,
                                std::size_t /*position*/, Kw value,
                                int delta) const {
  counts[model().count_index(value)] += delta;
}

FittedParts KldDetector::fitted_parts() const {
  const KldModel& m = model();
  return {.models = {&m, 1}, .reference = m.training_divergences()};
}

void KldDetector::restore_parts(const MemberRows& rows) {
  require(rows.thresholds.size() == 1,
          "KldDetector::restore_parts: one model per member");
  adopt(KldModel::from_parts(config_, {rows.edges.begin(), rows.edges.end()},
                             {rows.baselines.begin(), rows.baselines.end()},
                             {rows.reference.begin(), rows.reference.end()},
                             rows.thresholds.front()));
}

}  // namespace fdeta::core
