// PCA-based integrity-attack detector (the related-work baseline of
// ref [3], "PCA-Based Method for Detecting Integrity Attacks on AMI",
// QEST'15, by the same research group).
//
// Week vectors are projected onto the leading principal components of the
// training week-matrix; a week whose reconstruction error exceeds the
// (1 - significance) quantile of training errors is anomalous.  Unlike the
// KLD detector it is sensitive to the *shape* of the weekly profile, so it
// complements the distribution-based check.
#pragma once

#include <optional>
#include <vector>

#include "core/detector.h"
#include "stats/pca.h"

namespace fdeta::core {

struct PcaDetectorConfig {
  double explained_fraction = 0.90;  ///< variance retained by the basis
  double significance = 0.05;
};

class PcaDetector final : public Detector {
 public:
  explicit PcaDetector(PcaDetectorConfig config = {});

  void fit(std::span<const Kw> training) override;
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

  /// Reconstruction-error score of a week.
  double score(std::span<const Kw> week) const;
  double threshold() const;

 private:
  PcaDetectorConfig config_;
  std::optional<stats::Pca> pca_;
  double threshold_ = 0.0;
};

}  // namespace fdeta::core
