#include "core/reduced_kld_detector.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/error.h"
#include "persist/binary_io.h"

namespace fdeta::core {

ReducedKldDetector::ReducedKldDetector(ReducedKldDetectorConfig config)
    : config_(config) {
  require(config_.selected_slots >= 1 &&
              config_.selected_slots <= static_cast<std::size_t>(kSlotsPerWeek),
          "ReducedKldDetector: selected_slots must be in [1, 336]");
  KldModel::validate(config_.kld);
}

void ReducedKldDetector::adopt(std::vector<std::uint32_t> selected,
                               KldModel model) {
  selected_ = std::move(selected);
  is_selected_.reset();
  for (const std::uint32_t position : selected_) is_selected_.set(position);
  model_.emplace(std::move(model));
  calibration_ = ScoreCalibration::from_reference(
      model_->training_divergences(), model_->threshold(),
      config_.kld.significance);
}

const KldModel& ReducedKldDetector::model() const {
  if (!model_) throw InvalidArgument("ReducedKldDetector: fit() not called");
  return *model_;
}

void ReducedKldDetector::fit(std::span<const Kw> training) {
  const std::size_t weeks = training_weeks(training);
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
  std::vector<std::uint32_t> selected(
      order.begin(),
      order.begin() + static_cast<std::ptrdiff_t>(config_.selected_slots));
  std::sort(selected.begin(), selected.end());

  // The reduced M x k training matrix, one gathered row per week.
  std::vector<double> reduced;
  reduced.reserve(weeks * selected.size());
  for (std::size_t w = 0; w < weeks; ++w) {
    for (const std::uint32_t s : selected) {
      reduced.push_back(training[w * width + s]);
    }
  }
  KldModel model = KldModel::fit(reduced, selected.size(), config_.kld);
  adopt(std::move(selected), std::move(model));
}

void ReducedKldDetector::count_week(std::span<const Kw> week,
                                    SlotIndex first_slot,
                                    std::span<std::uint16_t> counts) const {
  const KldModel& m = model();
  const std::size_t width = week.size();
  const std::size_t offset = week_offset(week, first_slot);
  std::fill(counts.begin(), counts.end(), std::uint16_t{0});
  for (const std::uint32_t s : selected_) {
    ++counts[m.count_index(week[(s + width - offset) % width])];
  }
}

void ReducedKldDetector::count_reading(std::span<std::uint16_t> counts,
                                       std::size_t position, Kw value,
                                       int delta) const {
  if (is_selected_[position]) counts[model().count_index(value)] += delta;
}

double ReducedKldDetector::raw_score_week(std::span<const Kw> week,
                                          SlotIndex first_slot) const {
  const std::span<std::uint16_t> counts = count_scratch(count_words());
  count_week(week, first_slot, counts);
  return raw_score_counts(counts);
}

KldExplanation ReducedKldDetector::raw_explain_week(std::span<const Kw> week,
                                                    SlotIndex first_slot) const {
  std::vector<std::uint16_t> counts(count_words());
  count_week(week, first_slot, counts);
  return model().explain(counts);
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
  const KldModel& m = model();
  enc.u64(config_.selected_slots);
  enc.u64(config_.kld.bins);
  enc.f64(config_.kld.significance);
  enc.f64(config_.kld.epsilon);
  enc.u8(config_.kld.exclude_out_of_support ? 1 : 0);
  for (const std::uint32_t s : selected_) enc.u32(s);
  enc.doubles(m.histogram().edges());
  enc.doubles(m.baseline());
  enc.doubles(m.training_divergences());
  enc.f64(m.threshold());
}

void ReducedKldDetector::restore_state(persist::Decoder& dec) {
  ReducedKldDetectorConfig config;
  config.selected_slots = dec.count("kld-lite slots", kSlotsPerWeek);
  config.kld.bins = dec.count("kld-lite bins", 1u << 20);
  config.kld.significance = dec.f64();
  config.kld.epsilon = dec.f64();
  config.kld.exclude_out_of_support = dec.u8() != 0;
  ReducedKldDetector out(config);

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
  std::vector<double> edges = dec.doubles("kld-lite edges", 1u << 20);
  std::vector<double> baseline = dec.doubles("kld-lite baseline", 1u << 20);
  std::vector<double> k_training =
      dec.doubles("kld-lite training K", 1u << 20);
  const double threshold = dec.f64();

  out.adopt(std::move(selected),
            KldModel::from_parts(config.kld, std::move(edges),
                                 std::move(baseline), std::move(k_training),
                                 threshold));
  *this = std::move(out);
}

}  // namespace fdeta::core
