#include "meter/weekly_stats.h"

#include <algorithm>

#include "common/error.h"
#include "stats/descriptive.h"

namespace fdeta::meter {

WeeklyStats weekly_stats(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "weekly_stats: span must be whole weeks");
  const std::size_t weeks = training.size() / kSlotsPerWeek;
  require(weeks >= 2, "weekly_stats: need at least two weeks");

  WeeklyStats out;
  out.means.reserve(weeks);
  out.variances.reserve(weeks);
  for (std::size_t w = 0; w < weeks; ++w) {
    const std::span<const Kw> week{training.data() + w * kSlotsPerWeek,
                                   static_cast<std::size_t>(kSlotsPerWeek)};
    out.means.push_back(stats::mean(week));
    out.variances.push_back(stats::variance(week));
  }
  out.mean_lo = *std::min_element(out.means.begin(), out.means.end());
  out.mean_hi = *std::max_element(out.means.begin(), out.means.end());
  out.var_lo = *std::min_element(out.variances.begin(), out.variances.end());
  out.var_hi = *std::max_element(out.variances.begin(), out.variances.end());
  return out;
}

}  // namespace fdeta::meter
