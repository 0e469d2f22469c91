// Per-week summary statistics over a training span.
//
// The Integrated ARIMA detector (ref [2], Section VII-C/VIII-B1) checks a new
// week's mean and variance against the range observed across training weeks;
// the Integrated ARIMA attack (and the 2A/2B variant) targets exactly those
// bounds: the truncated-normal mean is set to the *max* of weekly means for
// over-reporting (1B) and the *min* for under-reporting (2A/2B).
#pragma once

#include <span>
#include <vector>

#include "common/units.h"

namespace fdeta::meter {

struct WeeklyStats {
  std::vector<double> means;      ///< weekly means, one per training week
  std::vector<double> variances;  ///< weekly (sample) variances

  double mean_lo = 0.0;  ///< min of weekly means
  double mean_hi = 0.0;  ///< max of weekly means
  double var_lo = 0.0;   ///< min of weekly variances
  double var_hi = 0.0;   ///< max of weekly variances
};

/// Computes weekly stats over a span whose length is a whole number of
/// weeks (>= 2 weeks required).
WeeklyStats weekly_stats(std::span<const Kw> training);

}  // namespace fdeta::meter
