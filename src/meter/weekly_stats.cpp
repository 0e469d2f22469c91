#include "meter/weekly_stats.h"

#include <algorithm>

#include "common/error.h"
#include "persist/binary_io.h"
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

void save_weekly_stats(const WeeklyStats& stats, persist::Encoder& enc) {
  enc.doubles(stats.means);
  enc.doubles(stats.variances);
  enc.f64(stats.mean_lo);
  enc.f64(stats.mean_hi);
  enc.f64(stats.var_lo);
  enc.f64(stats.var_hi);
}

WeeklyStats load_weekly_stats(persist::Decoder& dec) {
  WeeklyStats out;
  out.means = dec.doubles("weekly means", 1u << 24);
  out.variances = dec.doubles("weekly variances", 1u << 24);
  if (out.means.size() != out.variances.size()) {
    throw DataError("checkpoint: weekly stats mean/variance count mismatch");
  }
  out.mean_lo = dec.f64();
  out.mean_hi = dec.f64();
  out.var_lo = dec.f64();
  out.var_hi = dec.f64();
  const double mean_bounds[] = {out.mean_lo, out.mean_hi};
  const double var_bounds[] = {out.var_lo, out.var_hi};
  persist::require_finite("weekly means", out.means);
  persist::require_finite("weekly mean bounds", mean_bounds);
  persist::require_finite("weekly variances", out.variances, true);
  persist::require_finite("weekly variance bounds", var_bounds, true);
  return out;
}

}  // namespace fdeta::meter
