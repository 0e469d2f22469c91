#include "core/conditioned_kld_detector.h"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "stats/quantile.h"

namespace fdeta::core {

SlotGroups tou_slot_groups(const pricing::TimeOfUse& tou) {
  // TOU calendars repeat daily, so slot-of-week position fixes the price.
  SlotGroups groups{};
  for (std::size_t s = 0; s < groups.size(); ++s) {
    groups[s] = tou.is_peak(s) ? 1 : 0;
  }
  return groups;
}

SlotGroups rtp_slot_groups(const pricing::RealTimePricing& rtp,
                           std::size_t slots, std::size_t bands) {
  require(bands >= 2, "rtp_slot_groups: need at least two bands");
  require(slots >= bands, "rtp_slot_groups: too few slots");
  std::vector<double> prices(slots);
  for (std::size_t t = 0; t < slots; ++t) prices[t] = rtp.price(t);
  std::vector<double> sorted = prices;
  std::sort(sorted.begin(), sorted.end());

  std::vector<double> cut(bands - 1);
  for (std::size_t b = 1; b < bands; ++b) {
    cut[b - 1] = stats::quantile_sorted(
        sorted, static_cast<double>(b) / static_cast<double>(bands));
  }
  SlotGroups groups{};
  for (std::size_t s = 0; s < groups.size(); ++s) {
    const double price = prices[s % slots];
    std::uint32_t g = 0;
    while (g < cut.size() && price > cut[g]) ++g;
    groups[s] = g;
  }
  return groups;
}

ConditionedKldDetector::ConditionedKldDetector(
    ConditionedKldDetectorConfig config)
    : config_(config) {
  KldModel::validate(config_.kld);
  const SlotGroups& table = config_.slot_group;
  groups_ = *std::max_element(table.begin(), table.end()) + std::size_t{1};
  require(groups_ >= 2, "ConditionedKldDetector: need >= 2 groups");
  // Every id up to the largest owns a slot iff groups_ distinct ids occur
  // (so at most 336 groups).
  std::bitset<kSlotsPerWeek> owned;
  for (const std::uint32_t g : table) {
    if (g < owned.size()) owned.set(g);
  }
  require(owned.count() == groups_,
          "ConditionedKldDetector: a price group matched no slots");
}

const std::vector<KldModel>& ConditionedKldDetector::models() const {
  if (models_.empty()) {
    throw InvalidArgument("ConditionedKldDetector: fit() not called");
  }
  return models_;
}

void ConditionedKldDetector::fit(std::span<const Kw> training) {
  const std::size_t weeks = training_weeks(training);
  const std::size_t width = static_cast<std::size_t>(kSlotsPerWeek);
  std::vector<KldModel> models;
  models.reserve(groups_);
  std::vector<double> rows;
  for (std::size_t g = 0; g < groups_; ++g) {
    // The group's readings of every training week, one row per week.
    rows.clear();
    for (std::size_t t = 0; t < training.size(); ++t) {
      if (config_.slot_group[t % width] == g) rows.push_back(training[t]);
    }
    models.push_back(KldModel::fit(rows, rows.size() / weeks, config_.kld));
  }

  // Each training week's scalar margin on the plugin scale: the calibration
  // reference, exactly what raw_score_week would report for that week.
  std::vector<double> margins(weeks, -std::numeric_limits<double>::infinity());
  for (const KldModel& model : models) {
    for (std::size_t w = 0; w < weeks; ++w) {
      margins[w] = std::max(
          margins[w], model.training_divergences()[w] - model.threshold());
    }
  }
  adopt(std::move(models), std::move(margins));
}

void ConditionedKldDetector::adopt(std::vector<KldModel> models,
                                   std::vector<double> margins) {
  models_ = std::move(models);
  training_margins_ = std::move(margins);
  calibration_ = ScoreCalibration::from_reference(training_margins_, 0.0,
                                                  config_.kld.significance);
}

void ConditionedKldDetector::count_week(
    std::span<const Kw> week, SlotIndex first_slot,
    std::span<std::uint16_t> counts) const {
  const std::vector<KldModel>& m = models();
  const std::size_t offset = week_offset(week, first_slot);
  std::fill(counts.begin(), counts.end(), std::uint16_t{0});
  for (std::size_t i = 0; i < week.size(); ++i) {
    const std::size_t g = config_.slot_group[(offset + i) % week.size()];
    ++counts[g * m[g].count_words() + m[g].count_index(week[i])];
  }
}

void ConditionedKldDetector::count_reading(std::span<std::uint16_t> counts,
                                           std::size_t position, Kw value,
                                           int delta) const {
  const std::size_t g = config_.slot_group[position];
  const KldModel& m = models()[g];
  counts[g * m.count_words() + m.count_index(value)] += delta;
}

double ConditionedKldDetector::raw_score_counts(
    std::span<const std::uint16_t> counts) const {
  const std::vector<KldModel>& m = models();
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < m.size(); ++g) {
    worst = std::max(worst,
                     m[g].score(group_counts(counts, g)) - m[g].threshold());
  }
  return worst;
}

std::vector<double> ConditionedKldDetector::scores(
    std::span<const Kw> week, SlotIndex first_slot) const {
  const std::span<std::uint16_t> counts = count_scratch(count_words());
  count_week(week, first_slot, counts);
  std::vector<double> out(models().size());
  for (std::size_t g = 0; g < out.size(); ++g) {
    out[g] = models_[g].score(group_counts(counts, g));
  }
  return out;
}

double ConditionedKldDetector::raw_score_week(std::span<const Kw> week,
                                              SlotIndex first_slot) const {
  const std::span<std::uint16_t> counts = count_scratch(count_words());
  count_week(week, first_slot, counts);
  return raw_score_counts(counts);
}

KldExplanation ConditionedKldDetector::raw_explain_week(
    std::span<const Kw> week, SlotIndex first_slot) const {
  std::vector<KldExplanation> groups = explain(week, first_slot);
  std::size_t worst = 0;
  for (std::size_t g = 1; g < groups.size(); ++g) {
    if (groups[g].score - groups[g].threshold >
        groups[worst].score - groups[worst].threshold) {
      worst = g;
    }
  }
  KldExplanation out = std::move(groups[worst]);
  // Rebase the header to the scalar margin scale so it matches
  // raw_score_week/raw_decision_threshold exactly (the bins stay on the
  // per-group divergence scale).
  out.score -= out.threshold;
  out.threshold = 0.0;
  return out;
}

std::vector<KldExplanation> ConditionedKldDetector::explain(
    std::span<const Kw> week, SlotIndex first_slot) const {
  const std::vector<KldModel>& m = models();
  std::vector<std::uint16_t> counts(count_words());
  count_week(week, first_slot, counts);
  std::vector<KldExplanation> out;
  out.reserve(m.size());
  for (std::size_t g = 0; g < m.size(); ++g) {
    out.push_back(m[g].explain(group_counts(counts, g)));
  }
  return out;
}

std::vector<double> ConditionedKldDetector::thresholds() const {
  std::vector<double> out;
  for (const KldModel& model : models()) out.push_back(model.threshold());
  return out;
}

FittedParts ConditionedKldDetector::fitted_parts() const {
  return {.models = models(), .reference = training_margins_};
}

void ConditionedKldDetector::restore_parts(const MemberRows& rows) {
  const std::size_t bins = config_.kld.bins;
  require(rows.edges.size() == groups_ * (bins + 1) &&
              rows.baselines.size() == groups_ * bins &&
              rows.thresholds.size() == groups_,
          "ConditionedKldDetector::restore_parts: one row per price group");
  std::vector<KldModel> models;
  models.reserve(groups_);
  for (std::size_t g = 0; g < groups_; ++g) {
    const auto edges = rows.edges.subspan(g * (bins + 1), bins + 1);
    const auto baseline = rows.baselines.subspan(g * bins, bins);
    models.push_back(KldModel::from_parts(
        config_.kld, {edges.begin(), edges.end()},
        {baseline.begin(), baseline.end()}, {}, rows.thresholds[g],
        /*k_training_optional=*/true));
  }
  if (rows.reference.empty() ||
      !std::all_of(rows.reference.begin(), rows.reference.end(),
                   [](double m) { return std::isfinite(m); })) {
    throw DataError("checkpoint: ckld training margins missing or non-finite");
  }
  adopt(std::move(models), {rows.reference.begin(), rows.reference.end()});
}

}  // namespace fdeta::core
