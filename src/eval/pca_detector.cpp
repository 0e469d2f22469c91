#include "eval/pca_detector.h"

#include "common/error.h"
#include "stats/matrix.h"
#include "stats/quantile.h"

namespace fdeta::core {

PcaDetector::PcaDetector(PcaDetectorConfig config) : config_(config) {
  require(config_.significance > 0.0 && config_.significance < 1.0,
          "PcaDetector: significance must be in (0,1)");
}

void PcaDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "PcaDetector: training must be whole weeks");
  const std::size_t weeks = training.size() / kSlotsPerWeek;
  require(weeks >= 4, "PcaDetector: need at least four training weeks");

  stats::Matrix x(weeks, kSlotsPerWeek);
  for (std::size_t w = 0; w < weeks; ++w) {
    for (std::size_t s = 0; s < static_cast<std::size_t>(kSlotsPerWeek); ++s) {
      x(w, s) = training[w * kSlotsPerWeek + s];
    }
  }
  pca_.emplace(x, config_.explained_fraction);

  // Threshold calibration must be OUT-of-sample: a basis fitted on all weeks
  // reconstructs those same weeks optimistically, and a quantile of
  // in-sample errors flags nearly every honest future week.  Two-fold
  // cross-validation gives honest error magnitudes: fit on even weeks, score
  // odd weeks, and vice versa.
  std::vector<double> errors;
  errors.reserve(weeks);
  for (int fold = 0; fold < 2; ++fold) {
    std::vector<std::size_t> fit_rows, score_rows;
    for (std::size_t w = 0; w < weeks; ++w) {
      if (static_cast<int>(w % 2) == fold) {
        fit_rows.push_back(w);
      } else {
        score_rows.push_back(w);
      }
    }
    stats::Matrix half(fit_rows.size(), kSlotsPerWeek);
    for (std::size_t r = 0; r < fit_rows.size(); ++r) {
      for (std::size_t s = 0; s < static_cast<std::size_t>(kSlotsPerWeek);
           ++s) {
        half(r, s) = x(fit_rows[r], s);
      }
    }
    const stats::Pca fold_pca(half, config_.explained_fraction);
    for (std::size_t w : score_rows) {
      errors.push_back(fold_pca.reconstruction_error(x.row(w)));
    }
  }
  threshold_ = stats::quantile(errors, 1.0 - config_.significance);
}

double PcaDetector::score(std::span<const Kw> week) const {
  require(pca_.has_value(), "PcaDetector: fit() not called");
  return pca_->reconstruction_error(week);
}

double PcaDetector::threshold() const {
  require(pca_.has_value(), "PcaDetector: fit() not called");
  return threshold_;
}

bool PcaDetector::flag_week(std::span<const Kw> week,
                            SlotIndex /*first_slot*/) const {
  return score(week) > threshold_;
}

}  // namespace fdeta::core
