#include "core/reduced_kld_detector.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

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

FittedParts ReducedKldDetector::fitted_parts() const {
  const KldModel& m = model();
  return {.models = {&m, 1},
          .reference = m.training_divergences(),
          .positions = selected_};
}

void ReducedKldDetector::restore_parts(const MemberRows& rows) {
  require(rows.thresholds.size() == 1 &&
              rows.positions.size() == config_.selected_slots,
          "ReducedKldDetector::restore_parts: one model, k positions");
  for (std::size_t j = 0; j < rows.positions.size(); ++j) {
    if (rows.positions[j] >= static_cast<std::uint32_t>(kSlotsPerWeek)) {
      throw DataError("checkpoint: kld-lite slot index out of range");
    }
    if (j > 0 && rows.positions[j] <= rows.positions[j - 1]) {
      throw DataError("checkpoint: kld-lite slots not strictly ascending");
    }
  }
  adopt({rows.positions.begin(), rows.positions.end()},
        KldModel::from_parts(config_.kld,
                             {rows.edges.begin(), rows.edges.end()},
                             {rows.baselines.begin(), rows.baselines.end()},
                             {rows.reference.begin(), rows.reference.end()},
                             rows.thresholds.front()));
}

}  // namespace fdeta::core
