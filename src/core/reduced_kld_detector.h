// The feature-reduced "lightweight" KLD detector ("kld-lite").
//
// *Lightweight LSTM Model for Energy Theft Detection via Input Data
// Reduction* (PAPERS.md) shows that aggressively reduced weekly inputs can
// hold a detector's operating point.  This family applies the idea to the
// paper's eq.-(12) machinery: fit selects the k slot-of-week positions with
// the highest training variance (the slots that carry the distribution's
// information; ties break on the lower slot index, so selection is
// deterministic), and one histogram is fitted and scored over those k
// readings of every week.  Scoring cost drops from 336 to k binning
// operations per week - the lever for serving millions of meters on the
// sharded monitor hot path.  bench/ablation_input_reduction sweeps k against
// recall/FPR at the paper's operating point; see EXPERIMENTS.md.
//
// ReducedKldDetector is that family as a standalone core::Detector: a
// one-member DetectorFleet.  Only the k selected positions count; a reading
// at any other position leaves the counts unchanged.
#pragma once

#include "core/detector_plugin.h"

namespace fdeta::core {

class ReducedKldDetector final : public ScoringDetector {
 public:
  /// Throws InvalidArgument unless 1 <= selected_slots <= 336 and the kld
  /// knobs pass validate_kld_config.
  explicit ReducedKldDetector(ReducedKldDetectorConfig config = {})
      : ScoringDetector(DetectorFleet(config)) {}

  ReducedKldDetectorConfig config() const {
    return {.selected_slots = fleet().options().reduced_slots,
            .kld = fleet().options().kld};
  }
};

}  // namespace fdeta::core
