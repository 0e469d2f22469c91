#include "core/conditioned_kld_detector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.h"
#include "persist/binary_io.h"
#include "stats/quantile.h"

namespace fdeta::core {

std::function<std::size_t(std::size_t)> tou_slot_groups(
    const pricing::TimeOfUse& tou) {
  // TOU calendars repeat daily, so slot-of-week position fixes the price.
  std::vector<std::size_t> groups(kSlotsPerWeek);
  for (std::size_t s = 0; s < groups.size(); ++s) {
    groups[s] = tou.is_peak(s) ? 1 : 0;
  }
  return [groups = std::move(groups)](std::size_t slot) {
    return groups[slot % kSlotsPerWeek];
  };
}

std::function<std::size_t(std::size_t)> rtp_slot_groups(
    const pricing::RealTimePricing& rtp, std::size_t slots,
    std::size_t bands) {
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
  std::vector<std::size_t> groups(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    std::size_t g = 0;
    while (g < cut.size() && prices[t] > cut[g]) ++g;
    groups[t] = g;
  }
  return [groups = std::move(groups)](std::size_t slot) {
    return groups[slot % groups.size()];
  };
}

ConditionedKldDetector::ConditionedKldDetector(
    ConditionedKldDetectorConfig config)
    : config_(std::move(config)) {
  KldModel::validate(config_.kld);
  require(config_.groups >= 2, "ConditionedKldDetector: need >= 2 groups");
  if (!config_.slot_group) {
    const pricing::TimeOfUse tou = pricing::nightsaver();
    config_.slot_group = tou_slot_groups(tou);
    config_.groups = 2;
  }
  // Tabulated once, so fit and scoring never call the std::function.
  group_of_.resize(kSlotsPerWeek);
  std::vector<std::size_t> slots(config_.groups, 0);
  for (std::size_t s = 0; s < group_of_.size(); ++s) {
    const std::size_t g = config_.slot_group(s);
    require(g < config_.groups,
            "ConditionedKldDetector: slot group id out of range");
    group_of_[s] = static_cast<std::uint16_t>(g);
    ++slots[g];
  }
  require(std::find(slots.begin(), slots.end(), 0) == slots.end(),
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
  models.reserve(config_.groups);
  std::vector<double> rows;
  for (std::size_t g = 0; g < config_.groups; ++g) {
    // The group's readings of every training week, one row per week.
    rows.clear();
    for (std::size_t t = 0; t < training.size(); ++t) {
      if (group_of_[t % width] == g) rows.push_back(training[t]);
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
    const std::size_t g = group_of_[(offset + i) % week.size()];
    ++counts[g * m[g].count_words() + m[g].count_index(week[i])];
  }
}

void ConditionedKldDetector::count_reading(std::span<std::uint16_t> counts,
                                           std::size_t position, Kw value,
                                           int delta) const {
  const std::size_t g = group_of_[position];
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

std::string ConditionedKldDetector::config_fingerprint() const {
  // The slot->group table is part of the scoring behaviour; fold it into the
  // fingerprint so two detectors conditioned on different calendars never
  // pass a uniformity check.
  std::uint64_t table_hash = 0xcbf29ce484222325ULL;
  for (std::size_t s = 0; s < kSlotsPerWeek; ++s) {
    table_hash ^= static_cast<std::uint64_t>(config_.slot_group(s));
    table_hash *= 0x100000001b3ULL;
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "ckld(groups=%zu,bins=%zu,sig=%.17g,eps=%.17g,oos=%d,"
                "slots=%016llx)",
                config_.groups, config_.kld.bins, config_.kld.significance,
                config_.kld.epsilon, config_.kld.exclude_out_of_support ? 1 : 0,
                static_cast<unsigned long long>(table_hash));
  return buf;
}

void ConditionedKldDetector::save_state(persist::Encoder& enc) const {
  const std::vector<KldModel>& m = models();
  enc.u64(config_.groups);
  enc.u64(config_.kld.bins);
  enc.f64(config_.kld.significance);
  enc.f64(config_.kld.epsilon);
  enc.u8(config_.kld.exclude_out_of_support ? 1 : 0);
  for (std::size_t s = 0; s < kSlotsPerWeek; ++s) {
    enc.u32(static_cast<std::uint32_t>(config_.slot_group(s)));
  }
  for (const KldModel& model : m) {
    enc.doubles(model.histogram().edges());
    enc.doubles(model.baseline());
    enc.f64(model.threshold());
  }
  // The training weeks' scalar margins, the calibration reference; the
  // per-group K_i are not kept.
  enc.doubles(training_margins_);
}

void ConditionedKldDetector::restore_state(persist::Decoder& dec) {
  ConditionedKldDetectorConfig config;
  config.groups = dec.count("ckld groups", 1u << 16);
  config.kld.bins = dec.count("ckld bins", 1u << 20);
  config.kld.significance = dec.f64();
  config.kld.epsilon = dec.f64();
  config.kld.exclude_out_of_support = dec.u8() != 0;
  std::vector<std::size_t> table(kSlotsPerWeek);
  for (auto& g : table) g = dec.u32();
  config.slot_group = [table = std::move(table)](std::size_t slot) {
    return table[slot % kSlotsPerWeek];
  };
  ConditionedKldDetector out(std::move(config));

  std::vector<KldModel> models;
  for (std::size_t g = 0; g < out.config_.groups; ++g) {
    std::vector<double> edges = dec.doubles("ckld edges", 1u << 20);
    std::vector<double> baseline = dec.doubles("ckld baseline", 1u << 20);
    const double threshold = dec.f64();
    models.push_back(KldModel::from_parts(out.config_.kld, std::move(edges),
                                          std::move(baseline), {}, threshold,
                                          /*k_training_optional=*/true));
  }
  std::vector<double> margins =
      dec.doubles("ckld training margins", 1u << 20);
  if (margins.empty() ||
      !std::all_of(margins.begin(), margins.end(),
                   [](double m) { return std::isfinite(m); })) {
    throw DataError("checkpoint: ckld training margins missing or non-finite");
  }
  out.adopt(std::move(models), std::move(margins));
  *this = std::move(out);
}

}  // namespace fdeta::core
