#include "core/conditioned_kld_detector.h"

#include <algorithm>

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

ConditionedKldDetectorConfig ConditionedKldDetector::config() const {
  ConditionedKldDetectorConfig out{.kld = fleet().options().kld};
  std::copy(fleet().calendar().begin(), fleet().calendar().end(),
            out.slot_group.begin());
  return out;
}

std::vector<double> ConditionedKldDetector::thresholds() const {
  const DetectorFleet& f = fitted();
  std::vector<double> out(f.groups());
  for (std::size_t g = 0; g < out.size(); ++g) out[g] = f.threshold(0, g);
  return out;
}

}  // namespace fdeta::core
