#include "core/detector_fleet.h"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/detector_registry.h"
#include "persist/binary_io.h"
#include "stats/histogram.h"
#include "stats/quantile.h"

namespace fdeta::core {

namespace {

constexpr std::size_t kWeek = kSlotsPerWeek;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Floor of the over-threshold segment fraction.  Large enough that
// (1 - sig) + sig * kMinOverThreshold still rounds strictly above 1 - sig in
// IEEE doubles for any significance >= 1e-6 (the flag-preservation
// invariant), small enough to be invisible on the calibrated scale.
constexpr double kMinOverThreshold = 1e-9;

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

/// Position of x in the sorted order of `reference`, in [0, 1]: the left
/// inverse of quantile_sorted (x at or below the min is 0, at or above the
/// max is 1, linear between adjacent order statistics).  One pass over the
/// fit-order reference: the count of values <= x, the largest of them and
/// the smallest value above x are exactly the sorted reference's
/// upper_bound bracket.
double position(std::span<const double> reference, double x) {
  std::size_t at_or_below = 0;
  double below = -kInf;  // the largest value <= x
  double above = kInf;   // the smallest value > x
  double min = kInf;
  for (const double r : reference) {
    min = std::min(min, r);
    if (r <= x) {
      ++at_or_below;
      below = std::max(below, r);
    } else {
      above = std::min(above, r);
    }
  }
  if (x <= min) return 0.0;
  if (at_or_below == reference.size()) return 1.0;
  const double frac = (x - below) / (above - below);
  return (static_cast<double>(at_or_below - 1) + frac) /
         static_cast<double>(reference.size() - 1);
}

/// The slot-of-week of week[0]: week[i] of a slot-aligned week holds
/// slot-of-week (offset + i) mod kSlotsPerWeek.  Throws InvalidArgument
/// unless `week` is kSlotsPerWeek readings.
std::size_t week_offset(std::span<const Kw> week, SlotIndex first_slot) {
  if (week.size() != kWeek) {
    throw InvalidArgument("KLD: week must be kSlotsPerWeek readings");
  }
  return static_cast<std::size_t>(first_slot) % kWeek;
}

/// Per-thread count scratch of `words` words, contents unspecified: keeps
/// whole-week scoring allocation-free.
std::span<std::uint16_t> count_scratch(std::size_t words) {
  thread_local std::vector<std::uint16_t> scratch;
  scratch.resize(words);
  return scratch;
}

/// The Nightsaver peak/off-peak calendar the registry's "ckld" runs,
/// tabulated once.
const std::vector<std::uint32_t>& nightsaver_calendar() {
  static const std::vector<std::uint32_t> table = [] {
    const SlotGroups groups = ConditionedKldDetectorConfig{}.slot_group;
    return std::vector<std::uint32_t>(groups.begin(), groups.end());
  }();
  return table;
}

/// Row `i` of a flat array of `width`-element rows.
template <typename T>
std::span<const T> row(const std::vector<T>& flat, std::size_t i,
                       std::size_t width) {
  return std::span<const T>(flat).subspan(i * width, width);
}

template <typename T>
std::span<T> row(std::vector<T>& flat, std::size_t i, std::size_t width) {
  return std::span<T>(flat).subspan(i * width, width);
}

}  // namespace

/// One fitted eq.-(12) histogram: views of a row of B + 1 frozen edges and
/// B raw baseline masses, with the row's bin-guess slope, under the fleet's
/// config.
struct DetectorFleet::Histogram {
  std::span<const double> edges;
  std::span<const double> baseline;
  double scale;  // stats::bin_scale(edges)
  const KldDetectorConfig& config;

  /// The count word a reading moves: its bin when inside the frozen support
  /// [edges.front(), edges.back()] (NaN included, which bin_of puts in the
  /// last bin), B below the support and B + 1 above it.
  std::size_t word(double value) const {
    if (value < edges.front()) return baseline.size();
    if (value > edges.back()) return baseline.size() + 1;
    return stats::bin_of(edges, scale, value);
  }

  /// Zeroes `counts` (B + 2 words) and counts `values` into them.
  /// Returns the values' sum, added in index order from 0.0 as stats::mean
  /// adds them, so sum / values.size() is stats::mean(values) bit for bit.
  double count(std::span<const double> values,
               std::span<std::uint16_t> counts) const {
    std::fill(counts.begin(), counts.end(), std::uint16_t{0});
    double sum = 0.0;
    for (const double v : values) {
      ++counts[word(v)];
      sum += v;
    }
    return sum;
  }

  /// K_A of counted readings (B + 2 words), in bits; with `bins`, also its
  /// per-bin terms, accumulated in kl_divergence_bits order so their sum
  /// reproduces K_A exactly.  The week distribution p is the one
  /// out-of-support rule: with exclude_out_of_support, the in-support bins
  /// normalised over the in-support count - unless no reading is in
  /// support, when (as without exclusion) the readings below and above the
  /// support are clamped into the outer bins and p is normalised over all
  /// of them: the detector then sees a maximally anomalous week rather than
  /// a divide-by-zero.  q is the baseline smoothed by epsilon.  Finite for
  /// any counts when epsilon > 0; with epsilon = 0 it is +infinity whenever
  /// p has mass where the baseline has none.
  double divergence(std::span<const std::uint16_t> counts,
                    std::vector<KldBinContribution>* bins = nullptr) const {
    const std::size_t b = baseline.size();
    std::uint32_t in_support = 0;
    for (std::size_t j = 0; j < b; ++j) in_support += counts[j];
    const bool clamp = !config.exclude_out_of_support || in_support == 0;
    const std::uint32_t under = clamp ? counts[b] : 0;
    const std::uint32_t over = clamp ? counts[b + 1] : 0;
    const std::uint32_t total = in_support + under + over;
    require(total > 0, "KLD: no readings counted");
    // Integer counts are exact in a double, so p does not depend on the
    // order the readings were counted in.
    const double n = static_cast<double>(total);
    const double eps = config.epsilon;
    const double norm = 1.0 + eps * static_cast<double>(b);
    double sum = 0.0;
    bool infinite = false;
    for (std::size_t j = 0; j < b; ++j) {
      const std::uint32_t c = counts[j] + (j == 0 ? under : 0) +
                              (j + 1 == b ? over : 0);
      const double p = static_cast<double>(c) / n;
      const double q = eps > 0.0 ? (baseline[j] + eps) / norm : baseline[j];
      double bits = 0.0;
      if (p > 0.0) {  // 0 * log(0/q) := 0
        if (q <= 0.0) {
          bits = kInf;
          infinite = true;
        } else {
          bits = p * std::log2(p / q);
          sum += bits;
        }
      }
      if (bins != nullptr) {
        bins->push_back({.bin = j,
                         .lower = edges[j],
                         .upper = edges[j + 1],
                         .p = p,
                         .q = q,
                         .bits = bits});
      }
    }
    if (infinite) return kInf;
    // Round-off can produce a tiny negative value when p == q.
    return sum < 0.0 && sum > -1e-12 ? 0.0 : sum;
  }
};

// Inline: every count and score builds one, once per reading on the
// monitor's per-reading path.
inline DetectorFleet::Histogram DetectorFleet::histogram(std::size_t i,
                                                        std::size_t g) const {
  const std::size_t at = i * groups_ + g;
  const std::size_t bins = options_.kld.bins;
  return {row(edges_, at, bins + 1), row(baselines_, at, bins), scales_[at],
          options_.kld};
}

void validate_kld_config(const KldDetectorConfig& config) {
  require(config.bins >= 2, "KLD: need at least two bins");
  require(config.bins <= kMaxKldBins, "KLD: at most 2^20 bins");
  require(config.significance > 0.0 && config.significance < 1.0,
          "KLD: significance must be in (0,1)");
  require(std::isfinite(config.epsilon) && config.epsilon >= 0.0,
          "KLD: epsilon must be finite and >= 0");
}

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

double calibrated_score(std::span<const double> reference,
                        double raw_threshold, double significance,
                        double raw) {
  require(!reference.empty(), "calibrated_score: empty reference sample");
  require(significance > 0.0 && significance < 1.0,
          "calibrated_score: significance must be in (0,1)");
  if (std::isnan(raw)) return raw;
  const double base = 1.0 - significance;  // the uniform decision threshold
  const double at = position(reference, raw_threshold);

  if (raw > raw_threshold) {
    // Over-threshold segment: (1 - sig, 1].  The fraction is the raw score's
    // reference position beyond the threshold's; the floor keeps the result
    // strictly above the decision threshold (flag preservation).
    double frac = 1.0;  // threshold at/above the reference max: excess is 1
    if (at < 1.0) frac = (position(reference, raw) - at) / (1.0 - at);
    frac = std::min(1.0, std::max(frac, kMinOverThreshold));
    return std::min(1.0, base + significance * frac);
  }
  // At-or-under segment: [0, 1 - sig], hitting 1 - sig exactly at the raw
  // threshold.  Multiplying by base <= 1 cannot round above base, so the
  // result never crosses the decision threshold.
  if (at <= 0.0) return 0.0;
  return base * std::min(1.0, position(reference, raw) / at);
}

std::size_t training_weeks(std::span<const Kw> training) {
  require(training.size() % kWeek == 0, "KLD: training must be whole weeks");
  const std::size_t weeks = training.size() / kWeek;
  require(weeks >= 4, "KLD: need at least four training weeks");
  return weeks;
}

DetectorFleet::DetectorFleet(Kind kind, DetectorOptions options,
                             std::vector<std::uint32_t> calendar)
    : family_(registered_detector_names()[static_cast<std::size_t>(kind)]),
      kind_(kind),
      options_(options),
      calendar_(std::move(calendar)) {
  validate_kld_config(options_.kld);
  if (kind_ == Kind::kKldLite) {
    require(options_.reduced_slots >= 1 && options_.reduced_slots <= kWeek,
            "kld-lite: slots must be in [1, 336]");
    slots_ = options_.reduced_slots;
  }
  if (kind_ == Kind::kCkld) {
    groups_ = *std::max_element(calendar_.begin(), calendar_.end()) +
              std::size_t{1};
    require(groups_ >= 2, "ckld: need >= 2 groups");
    // Every id up to the largest owns a slot iff groups_ distinct ids occur
    // (so at most 336 groups).
    std::bitset<kWeek> owned;
    for (const std::uint32_t g : calendar_) {
      if (g < owned.size()) owned.set(g);
    }
    require(owned.count() == groups_,
            "ckld: a price group matched no slots");
  }
}

DetectorFleet::DetectorFleet(std::string family, DetectorOptions options,
                             std::size_t count, std::size_t weeks) {
  const auto names = registered_detector_names();
  const auto it = std::find(names.begin(), names.end(), family);
  if (it == names.end()) {
    throw std::invalid_argument("DetectorFleet: unknown detector \"" + family +
                                "\" (registered: " +
                                registered_detector_names_joined() + ")");
  }
  const auto kind = static_cast<Kind>(it - names.begin());
  std::vector<std::uint32_t> calendar;
  if (kind == Kind::kCkld) calendar = nightsaver_calendar();
  *this = DetectorFleet(kind, options, std::move(calendar));
  reset(count, weeks);
}

DetectorFleet::DetectorFleet(const ConditionedKldDetectorConfig& config)
    : DetectorFleet(Kind::kCkld, {.kld = config.kld},
                    {config.slot_group.begin(), config.slot_group.end()}) {}

void DetectorFleet::reset(std::size_t count, std::size_t weeks) {
  const std::size_t bins = options_.kld.bins;
  count_ = count;
  weeks_ = count > 0 ? weeks : 0;  // an empty fleet records no weeks
  edges_.assign(count * groups_ * (bins + 1), 0.0);
  baselines_.assign(count * groups_ * bins, 0.0);
  references_.assign(count * weeks_, 0.0);
  thresholds_.assign(count * groups_, 0.0);
  positions_.assign(count * slots_, 0);
  scales_.assign(count * groups_, 0.0);
}

std::span<const double> DetectorFleet::edges(std::size_t i,
                                             std::size_t g) const {
  return histogram(i, g).edges;
}

std::span<const double> DetectorFleet::baseline(std::size_t i,
                                                std::size_t g) const {
  return histogram(i, g).baseline;
}

std::span<const double> DetectorFleet::reference(std::size_t i) const {
  return row(references_, i, weeks_);
}

void DetectorFleet::fit(std::size_t i, std::span<const Kw> training) {
  const std::size_t weeks = training_weeks(training);
  require(i < count_, "DetectorFleet::fit: member index out of range");
  require(weeks == weeks_,
          "DetectorFleet::fit: training weeks differ from the fleet's");
  const std::size_t bins = options_.kld.bins;

  // Fits group g's histogram over `rows` (one row of readings per training
  // week): edges frozen over all of them, K_i = the divergence of row i,
  // the threshold their (1 - significance) quantile.  Returns the K_i.
  // Each row is counted once: the rows' counts sum to the whole sample's,
  // so the baseline is stats::Histogram::probabilities(rows) exactly.
  const std::size_t words = bins + 2;
  std::vector<std::uint16_t> counts;
  std::vector<std::size_t> total(bins);
  const auto fit_group = [&](std::size_t g, std::span<const double> rows) {
    const stats::Histogram frozen(rows, bins);
    const std::size_t at = i * groups_ + g;
    std::copy(frozen.edges().begin(), frozen.edges().end(),
              row(edges_, at, bins + 1).begin());
    scales_[at] = stats::bin_scale(frozen.edges());
    const Histogram h = histogram(i, g);
    // Training rows are in support by construction (the edges span them),
    // so their count words are plain bins and words B, B + 1 stay 0.
    const std::size_t width = rows.size() / weeks;
    counts.resize(weeks * words);
    std::fill(total.begin(), total.end(), std::size_t{0});
    for (std::size_t w = 0; w < weeks; ++w) {
      const std::span<std::uint16_t> week_counts = row(counts, w, words);
      h.count(rows.subspan(w * width, width), week_counts);
      for (std::size_t j = 0; j < bins; ++j) total[j] += week_counts[j];
    }
    const std::span<double> baseline = row(baselines_, at, bins);
    const double n = static_cast<double>(rows.size());
    for (std::size_t j = 0; j < bins; ++j) {
      baseline[j] = static_cast<double>(total[j]) / n;
    }
    std::vector<double> k(weeks);
    for (std::size_t w = 0; w < weeks; ++w) {
      k[w] = h.divergence(row(counts, w, words));
    }
    thresholds_[at] = stats::quantile(k, 1.0 - options_.kld.significance);
    return k;
  };

  const std::span<double> reference = row(references_, i, weeks_);
  switch (kind_) {
    case Kind::kKld: {
      const std::vector<double> k = fit_group(0, training);
      std::copy(k.begin(), k.end(), reference.begin());
      break;
    }
    case Kind::kKldLite: {
      // Per-slot-of-week variance across the training weeks: the slots that
      // vary carry the distribution's information; constant slots contribute
      // one fixed histogram count per week and can never separate weeks.
      std::vector<double> variance(kWeek, 0.0);
      for (std::size_t s = 0; s < kWeek; ++s) {
        double mean = 0.0;
        for (std::size_t w = 0; w < weeks; ++w) mean += training[w * kWeek + s];
        mean /= static_cast<double>(weeks);
        double ss = 0.0;
        for (std::size_t w = 0; w < weeks; ++w) {
          const double d = training[w * kWeek + s] - mean;
          ss += d * d;
        }
        variance[s] = ss / static_cast<double>(weeks);
      }
      // Top-k by (variance desc, slot asc): fully deterministic selection.
      std::vector<std::uint32_t> order(kWeek);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         if (variance[a] != variance[b]) {
                           return variance[a] > variance[b];
                         }
                         return a < b;
                       });
      const std::span<std::uint32_t> selected = row(positions_, i, slots_);
      std::copy_n(order.begin(), slots_, selected.begin());
      std::sort(selected.begin(), selected.end());
      // The reduced M x k training matrix, one gathered row per week.
      std::vector<double> reduced;
      reduced.reserve(weeks * slots_);
      for (std::size_t w = 0; w < weeks; ++w) {
        for (const std::uint32_t s : selected) {
          reduced.push_back(training[w * kWeek + s]);
        }
      }
      const std::vector<double> k = fit_group(0, reduced);
      std::copy(k.begin(), k.end(), reference.begin());
      break;
    }
    case Kind::kCkld: {
      // Each training week's margin on the plugin scale, exactly what
      // raw_score_week reports for that week: the calibration reference
      // (the groups' K_i are not kept).
      std::fill(reference.begin(), reference.end(), -kInf);
      std::vector<double> rows;
      for (std::size_t g = 0; g < groups_; ++g) {
        // The group's readings of every training week, one row per week.
        rows.clear();
        for (std::size_t t = 0; t < training.size(); ++t) {
          if (calendar_[t % kWeek] == g) rows.push_back(training[t]);
        }
        const std::vector<double> k = fit_group(g, rows);
        const double threshold = thresholds_[i * groups_ + g];
        for (std::size_t w = 0; w < weeks; ++w) {
          reference[w] = std::max(reference[w], k[w] - threshold);
        }
      }
      break;
    }
  }
}

double DetectorFleet::count_week(std::size_t i, std::span<const Kw> week,
                                 SlotIndex first_slot,
                                 std::span<std::uint16_t> counts) const {
  require(counts.size() == count_words(), "KLD: count span size");
  const std::size_t words = options_.kld.bins + 2;
  switch (kind_) {
    case Kind::kKld:
      // Every reading counts: the plain KLD is order-insensitive.
      require(week.size() <= std::numeric_limits<std::uint16_t>::max(),
              "KLD: at most 65535 readings per counted window");
      return histogram(i).count(week, counts);
    case Kind::kKldLite: {
      // Only the k selected positions count, but the sum takes every
      // reading.
      const std::size_t offset = week_offset(week, first_slot);
      const Histogram h = histogram(i);
      std::fill(counts.begin(), counts.end(), std::uint16_t{0});
      for (const std::uint32_t s : row(positions_, i, slots_)) {
        ++counts[h.word(week[(s + kWeek - offset) % kWeek])];
      }
      double sum = 0.0;
      for (const double v : week) sum += v;
      return sum;
    }
    case Kind::kCkld: {
      // A reading moves only its slot-of-week's group block.
      const std::size_t offset = week_offset(week, first_slot);
      std::fill(counts.begin(), counts.end(), std::uint16_t{0});
      double sum = 0.0;
      for (std::size_t t = 0; t < kWeek; ++t) {
        const std::size_t g = calendar_[(offset + t) % kWeek];
        ++counts[g * words + histogram(i, g).word(week[t])];
        sum += week[t];
      }
      return sum;
    }
  }
  return 0.0;  // unreachable: every Kind is handled above
}

void DetectorFleet::count_reading(std::size_t i,
                                  std::span<std::uint16_t> counts,
                                  std::size_t position, Kw value,
                                  int delta) const {
  std::size_t g = 0;
  if (kind_ == Kind::kCkld) g = calendar_[position];
  if (kind_ == Kind::kKldLite) {
    const std::span<const std::uint32_t> selected = row(positions_, i, slots_);
    if (!std::binary_search(selected.begin(), selected.end(), position)) {
      return;
    }
  }
  counts[g * (options_.kld.bins + 2) + histogram(i, g).word(value)] += delta;
}

double DetectorFleet::raw_score_counts(
    std::size_t i, std::span<const std::uint16_t> counts) const {
  require(counts.size() == count_words(), "KLD: count span size");
  const std::size_t words = options_.kld.bins + 2;
  if (kind_ != Kind::kCkld) {
    return histogram(i).divergence(counts);
  }
  double worst = -kInf;
  for (std::size_t g = 0; g < groups_; ++g) {
    const double divergence =
        histogram(i, g).divergence(counts.subspan(g * words, words));
    worst = std::max(worst, divergence - threshold(i, g));
  }
  return worst;
}

double DetectorFleet::raw_decision_threshold(std::size_t i) const {
  return kind_ == Kind::kCkld ? 0.0 : threshold(i);
}

double DetectorFleet::calibrate(std::size_t i, double raw) const {
  return calibrated_score(reference(i), raw_decision_threshold(i),
                          options_.kld.significance, raw);
}

double DetectorFleet::score_counts(
    std::size_t i, std::span<const std::uint16_t> counts) const {
  return calibrate(i, raw_score_counts(i, counts));
}

double DetectorFleet::raw_score_week(std::size_t i, std::span<const Kw> week,
                                     SlotIndex first_slot, double* sum) const {
  const std::span<std::uint16_t> counts = count_scratch(count_words());
  const double total = count_week(i, week, first_slot, counts);
  if (sum != nullptr) *sum = total;
  return raw_score_counts(i, counts);
}

double DetectorFleet::score_week(std::size_t i, std::span<const Kw> week,
                                 SlotIndex first_slot, double* sum) const {
  return calibrate(i, raw_score_week(i, week, first_slot, sum));
}

std::vector<double> DetectorFleet::group_scores(std::size_t i,
                                                std::span<const Kw> week,
                                                SlotIndex first_slot) const {
  const std::span<std::uint16_t> counts = count_scratch(count_words());
  count_week(i, week, first_slot, counts);
  const std::size_t words = options_.kld.bins + 2;
  std::vector<double> out(groups_);
  for (std::size_t g = 0; g < groups_; ++g) {
    out[g] = histogram(i, g).divergence(counts.subspan(g * words, words));
  }
  return out;
}

std::vector<KldExplanation> DetectorFleet::explain_groups(
    std::size_t i, std::span<const Kw> week, SlotIndex first_slot) const {
  std::vector<std::uint16_t> counts(count_words());
  count_week(i, week, first_slot, counts);
  const std::size_t words = options_.kld.bins + 2;
  std::vector<KldExplanation> out(groups_);
  for (std::size_t g = 0; g < groups_; ++g) {
    out[g].bins.reserve(options_.kld.bins);
    out[g].score = histogram(i, g).divergence(
        std::span<const std::uint16_t>(counts).subspan(g * words, words),
        &out[g].bins);
    out[g].threshold = threshold(i, g);
  }
  return out;
}

KldExplanation DetectorFleet::raw_explain_week(std::size_t i,
                                               std::span<const Kw> week,
                                               SlotIndex first_slot) const {
  std::vector<KldExplanation> groups = explain_groups(i, week, first_slot);
  if (kind_ != Kind::kCkld) return std::move(groups.front());
  // The explanation of the worst-margin group (the one driving the score),
  // its header rebased to the margin scale so it matches raw_score_week and
  // raw_decision_threshold exactly; the bins stay on the group's divergence
  // scale, so their bits sum to score + the group's threshold.
  std::size_t worst = 0;
  for (std::size_t g = 1; g < groups.size(); ++g) {
    if (groups[g].score - groups[g].threshold >
        groups[worst].score - groups[worst].threshold) {
      worst = g;
    }
  }
  KldExplanation out = std::move(groups[worst]);
  out.score -= out.threshold;
  out.threshold = 0.0;
  return out;
}

KldExplanation DetectorFleet::explain_week(std::size_t i,
                                           std::span<const Kw> week,
                                           SlotIndex first_slot) const {
  KldExplanation out = raw_explain_week(i, week, first_slot);
  out.raw_score = out.score;
  out.raw_threshold = out.threshold;
  out.score = calibrate(i, out.raw_score);
  out.threshold = decision_threshold();
  return out;
}

void DetectorFleet::save(persist::Encoder& enc) const {
  enc.u64(count_);
  enc.str(family_);
  enc.u64(options_.kld.bins);
  enc.f64(options_.kld.significance);
  enc.f64(options_.kld.epsilon);
  enc.u8(options_.kld.exclude_out_of_support ? 1 : 0);
  if (kind_ != Kind::kKld) enc.u64(options_.reduced_slots);
  enc.u32_array(calendar_);
  // Every member shares the fleet's shape and training-week count, so the
  // arrays need no per-member framing and restore as bulk reads.
  enc.u64(weeks_);
  enc.f64_array(edges_);
  enc.f64_array(baselines_);
  enc.f64_array(references_);
  enc.f64_array(thresholds_);
  enc.u32_array(positions_);
}

void DetectorFleet::check_row(std::size_t i) const {
  if (kind_ == Kind::kKldLite) {
    const std::span<const std::uint32_t> selected = row(positions_, i, slots_);
    for (std::size_t j = 0; j < selected.size(); ++j) {
      if (selected[j] >= kWeek) {
        throw DataError("checkpoint: kld-lite slot index out of range");
      }
      if (j > 0 && selected[j] <= selected[j - 1]) {
        throw DataError("checkpoint: kld-lite slots not strictly ascending");
      }
    }
  }
  for (std::size_t g = 0; g < groups_; ++g) {
    const std::span<const double> e = edges(i, g);
    if (!all_finite(e) || !std::is_sorted(e.begin(), e.end())) {
      throw DataError("checkpoint: kld edges must be finite and ascending");
    }
    const std::span<const double> q = baseline(i, g);
    if (!all_finite(q) ||
        std::any_of(q.begin(), q.end(), [](double m) { return m < 0.0; })) {
      throw DataError("checkpoint: kld baseline must be finite and >= 0");
    }
    if (kind_ != Kind::kCkld && weeks_ == 0) {
      throw DataError("checkpoint: kld training divergences missing");
    }
    // ckld's groups keep no K_i; its reference is the margins below.
    if ((kind_ != Kind::kCkld && !all_finite(reference(i))) ||
        !std::isfinite(threshold(i, g))) {
      throw DataError(
          "checkpoint: kld training divergences and threshold must be finite");
    }
  }
  if (kind_ == Kind::kCkld && (weeks_ == 0 || !all_finite(reference(i)))) {
    throw DataError("checkpoint: ckld training margins missing or non-finite");
  }
}

DetectorFleet DetectorFleet::restore(persist::Decoder& dec,
                                     std::size_t threads) {
  const std::size_t count = dec.count("detector fleet members", 100u << 20);
  const std::string family = dec.str("detector id", 256);
  if (!is_registered_detector(family)) {
    throw DataError("checkpoint: unknown detector id \"" + family + "\"");
  }
  DetectorOptions options;
  options.kld.bins = dec.count("kld bins", kMaxKldBins);
  options.kld.significance = dec.f64();
  options.kld.epsilon = dec.f64();
  options.kld.exclude_out_of_support = dec.u8() != 0;
  if (family != "kld") {
    options.reduced_slots = dec.count("kld-lite slots", 1u << 20);
  }
  // The one place decoded detector configs are validated: the fleet's
  // construction checks the options, check_row every member's rows.  A
  // precondition they break (a significance out of (0,1)) marks a malformed
  // checkpoint, not a bad call.
  DetectorFleet fleet;
  try {
    fleet = DetectorFleet(family, options, 0, 0);
  } catch (const InvalidArgument& e) {
    throw DataError(std::string("checkpoint: ") + e.what());
  }
  const std::vector<std::uint32_t> calendar =
      dec.u32_array("ckld slot groups", fleet.calendar_.size());
  if (calendar != fleet.calendar_) {
    throw DataError(
        "checkpoint: the ckld price calendar differs from this build's");
  }
  const std::size_t weeks = dec.count("train weeks", 1u << 20);
  const std::size_t g = fleet.groups_;
  const std::size_t bins = options.kld.bins;
  fleet.edges_ = dec.f64_array("detector edges", count * g, bins + 1);
  fleet.baselines_ = dec.f64_array("detector baselines", count * g, bins);
  fleet.references_ = dec.f64_array("detector references", count, weeks);
  fleet.thresholds_ = dec.f64_array("detector thresholds", count * g);
  fleet.positions_ =
      dec.u32_array("kld-lite positions", count * fleet.slots_);
  fleet.count_ = count;
  fleet.weeks_ = count > 0 ? weeks : 0;
  fleet.scales_.assign(count * g, 0.0);
  parallel_for(
      count,
      [&](std::size_t i) {
        fleet.check_row(i);
        for (std::size_t k = i * g; k < (i + 1) * g; ++k) {
          fleet.scales_[k] = stats::bin_scale(row(fleet.edges_, k, bins + 1));
        }
      },
      threads);
  return fleet;
}

}  // namespace fdeta::core
