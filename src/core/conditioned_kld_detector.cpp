#include "core/conditioned_kld_detector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.h"
#include "persist/binary_io.h"
#include "stats/kl_divergence.h"
#include "stats/quantile.h"

namespace fdeta::core {

std::function<std::size_t(std::size_t)> tou_slot_groups(
    const pricing::TimeOfUse& tou) {
  // TOU calendars repeat daily, so slot-of-week position fixes the price.
  std::vector<std::size_t> groups(kSlotsPerWeek);
  for (std::size_t s = 0; s < groups.size(); ++s) {
    groups[s] = tou.is_peak(s) ? 1 : 0;
  }
  return [groups = std::move(groups)](std::size_t slot) {
    return groups[slot % kSlotsPerWeek];
  };
}

std::function<std::size_t(std::size_t)> rtp_slot_groups(
    const pricing::RealTimePricing& rtp, std::size_t slots,
    std::size_t bands) {
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
  std::vector<std::size_t> groups(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    std::size_t g = 0;
    while (g < cut.size() && prices[t] > cut[g]) ++g;
    groups[t] = g;
  }
  return [groups = std::move(groups)](std::size_t slot) {
    return groups[slot % groups.size()];
  };
}

ConditionedKldDetector::ConditionedKldDetector(
    ConditionedKldDetectorConfig config)
    : config_(std::move(config)) {
  require(config_.bins >= 2, "ConditionedKldDetector: need >= 2 bins");
  require(config_.significance > 0.0 && config_.significance < 1.0,
          "ConditionedKldDetector: significance must be in (0,1)");
  require(config_.epsilon >= 0.0,
          "ConditionedKldDetector: epsilon must be >= 0");
  require(config_.groups >= 2, "ConditionedKldDetector: need >= 2 groups");
  if (!config_.slot_group) {
    const pricing::TimeOfUse tou = pricing::nightsaver();
    config_.slot_group = tou_slot_groups(tou);
    config_.groups = 2;
  }
}

std::vector<double> ConditionedKldDetector::group_values(
    std::span<const Kw> week, std::size_t g) const {
  std::vector<double> values;
  values.reserve(week.size() / config_.groups + 1);
  for (std::size_t s = 0; s < week.size(); ++s) {
    if (config_.slot_group(s % kSlotsPerWeek) == g) values.push_back(week[s]);
  }
  return values;
}

std::vector<double> ConditionedKldDetector::scoring_baseline(
    std::size_t g) const {
  if (config_.epsilon <= 0.0) return baselines_[g];  // paper-exact
  std::vector<double> out(baselines_[g].size());
  const double norm =
      1.0 + config_.epsilon * static_cast<double>(out.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = (baselines_[g][j] + config_.epsilon) / norm;
  }
  return out;
}

void ConditionedKldDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "ConditionedKldDetector: training must be whole weeks");
  const std::size_t weeks = training.size() / kSlotsPerWeek;
  require(weeks >= 4, "ConditionedKldDetector: need >= 4 training weeks");

  histograms_.assign(config_.groups, std::nullopt);
  baselines_.assign(config_.groups, {});
  scorings_.assign(config_.groups, {});
  thresholds_.assign(config_.groups, 0.0);

  std::vector<std::vector<double>> k_per_group(config_.groups);
  for (std::size_t g = 0; g < config_.groups; ++g) {
    // All training readings in this price group (across all weeks).
    const std::vector<double> all = group_values(training, g);
    require(!all.empty(),
            "ConditionedKldDetector: a price group matched no slots");
    histograms_[g].emplace(all, config_.bins);
    baselines_[g] = histograms_[g]->probabilities(all);
    scorings_[g] = scoring_baseline(g);

    std::vector<double>& k = k_per_group[g];
    k.reserve(weeks);
    for (std::size_t w = 0; w < weeks; ++w) {
      const std::span<const Kw> week{training.data() + w * kSlotsPerWeek,
                                     static_cast<std::size_t>(kSlotsPerWeek)};
      const auto values = group_values(week, g);
      const auto p = histograms_[g]->probabilities(values);
      k.push_back(stats::kl_divergence_bits(p, scorings_[g]));
    }
    thresholds_[g] = stats::quantile(k, 1.0 - config_.significance);
  }

  // Each training week's scalar margin on the plugin scale: the calibration
  // reference, exactly what raw_score_week would report for that week.
  training_margins_.assign(weeks, 0.0);
  for (std::size_t w = 0; w < weeks; ++w) {
    double worst = -std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < config_.groups; ++g) {
      worst = std::max(worst, k_per_group[g][w] - thresholds_[g]);
    }
    training_margins_[w] = worst;
  }
  calibration_ = ScoreCalibration::from_reference(training_margins_, 0.0,
                                                  config_.significance);
  fitted_ = true;
}

std::vector<double> ConditionedKldDetector::scores(
    std::span<const Kw> week) const {
  require(fitted_, "ConditionedKldDetector: fit() not called");
  std::vector<double> out(config_.groups);
  std::vector<double> p(config_.bins);
  for (std::size_t g = 0; g < config_.groups; ++g) {
    const auto values = group_values(week, g);
    histograms_[g]->probabilities_into(values, p,
                                       config_.exclude_out_of_support);
    out[g] = stats::kl_divergence_bits(p, scorings_[g]);
  }
  return out;
}

bool ConditionedKldDetector::flag_week(std::span<const Kw> week,
                                       SlotIndex /*first_slot*/) const {
  const auto s = scores(week);
  for (std::size_t g = 0; g < s.size(); ++g) {
    if (s[g] > thresholds_[g]) return true;
  }
  return false;
}

double ConditionedKldDetector::raw_score_week(std::span<const Kw> week,
                                              SlotIndex /*first_slot*/) const {
  const auto s = scores(week);
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < s.size(); ++g) {
    worst = std::max(worst, s[g] - thresholds_[g]);
  }
  return worst;
}

KldExplanation ConditionedKldDetector::raw_explain_week(
    std::span<const Kw> week, SlotIndex /*first_slot*/) const {
  const auto s = scores(week);
  std::size_t worst = 0;
  for (std::size_t g = 1; g < s.size(); ++g) {
    if (s[g] - thresholds_[g] > s[worst] - thresholds_[worst]) worst = g;
  }
  KldExplanation out = explain(week)[worst];
  // Rebase the header to the scalar margin scale so it matches
  // raw_score_week/raw_decision_threshold exactly (the bins stay on the
  // per-group divergence scale).
  out.score = s[worst] - thresholds_[worst];
  out.threshold = 0.0;
  return out;
}

std::string ConditionedKldDetector::config_fingerprint() const {
  // The slot->group table is part of the scoring behaviour; fold it into the
  // fingerprint so two detectors conditioned on different calendars never
  // pass a uniformity check.
  std::uint64_t table_hash = 0xcbf29ce484222325ULL;
  for (std::size_t s = 0; s < kSlotsPerWeek; ++s) {
    table_hash ^= static_cast<std::uint64_t>(config_.slot_group(s));
    table_hash *= 0x100000001b3ULL;
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "ckld(groups=%zu,bins=%zu,sig=%.17g,eps=%.17g,oos=%d,"
                "slots=%016llx)",
                config_.groups, config_.bins, config_.significance,
                config_.epsilon, config_.exclude_out_of_support ? 1 : 0,
                static_cast<unsigned long long>(table_hash));
  return buf;
}

std::vector<KldExplanation> ConditionedKldDetector::explain(
    std::span<const Kw> week) const {
  require(fitted_, "ConditionedKldDetector: fit() not called");
  std::vector<KldExplanation> out(config_.groups);
  for (std::size_t g = 0; g < config_.groups; ++g) {
    const auto values = group_values(week, g);
    std::vector<double> p(config_.bins);
    histograms_[g]->probabilities_into(values, p,
                                       config_.exclude_out_of_support);
    const std::vector<double>& edges = histograms_[g]->edges();
    const std::vector<double>& q = scorings_[g];

    KldExplanation& exp = out[g];
    exp.threshold = thresholds_[g];
    exp.bins.reserve(p.size());
    double total = 0.0;
    bool infinite = false;
    for (std::size_t j = 0; j < p.size(); ++j) {
      KldBinContribution c;
      c.bin = j;
      c.lower = edges[j];
      c.upper = edges[j + 1];
      c.p = p[j];
      c.q = q[j];
      if (p[j] > 0.0) {
        if (q[j] <= 0.0) {
          c.bits = std::numeric_limits<double>::infinity();
          infinite = true;
        } else {
          c.bits = p[j] * std::log2(p[j] / q[j]);
          total += c.bits;
        }
      }
      exp.bins.push_back(c);
    }
    if (infinite) {
      exp.score = std::numeric_limits<double>::infinity();
    } else {
      exp.score = total < 0.0 && total > -1e-12 ? 0.0 : total;
    }
  }
  return out;
}

const std::vector<double>& ConditionedKldDetector::thresholds() const {
  require(fitted_, "ConditionedKldDetector: fit() not called");
  return thresholds_;
}

const std::vector<double>& ConditionedKldDetector::training_margins() const {
  require(fitted_, "ConditionedKldDetector: fit() not called");
  return training_margins_;
}

void ConditionedKldDetector::save_state(persist::Encoder& enc) const {
  require(fitted_, "ConditionedKldDetector::save_state: fit() not called");
  enc.u64(config_.groups);
  enc.u64(config_.bins);
  enc.f64(config_.significance);
  enc.f64(config_.epsilon);
  enc.u8(config_.exclude_out_of_support ? 1 : 0);
  for (std::size_t s = 0; s < kSlotsPerWeek; ++s) {
    enc.u32(static_cast<std::uint32_t>(config_.slot_group(s)));
  }
  for (std::size_t g = 0; g < config_.groups; ++g) {
    histograms_[g]->save(enc);
    enc.doubles(baselines_[g]);
    enc.f64(thresholds_[g]);
  }
  // The training weeks' scalar margins, the calibration reference.
  enc.doubles(training_margins_);
}

void ConditionedKldDetector::restore_state(persist::Decoder& dec) {
  ConditionedKldDetectorConfig config;
  config.groups = dec.count("ckld groups", 1u << 16);
  config.bins = dec.count("ckld bins", 1u << 20);
  config.significance = dec.f64();
  config.epsilon = dec.f64();
  config.exclude_out_of_support = dec.u8() != 0;
  require(config.groups >= 2, "checkpoint: ckld needs >= 2 groups");
  require(config.bins >= 2, "checkpoint: ckld needs >= 2 bins");
  require(config.significance > 0.0 && config.significance < 1.0,
          "checkpoint: ckld significance out of range");
  require(config.epsilon >= 0.0, "checkpoint: ckld epsilon negative");

  std::vector<std::size_t> table(kSlotsPerWeek);
  for (auto& g : table) {
    g = dec.u32();
    if (g >= config.groups) {
      throw DataError("checkpoint: ckld slot group id out of range");
    }
  }
  config.slot_group = [table = std::move(table)](std::size_t slot) {
    return table[slot % kSlotsPerWeek];
  };

  std::vector<std::optional<stats::Histogram>> histograms;
  std::vector<std::vector<double>> baselines;
  std::vector<double> thresholds;
  for (std::size_t g = 0; g < config.groups; ++g) {
    stats::Histogram histogram = stats::Histogram::load(dec);
    if (histogram.bin_count() != config.bins) {
      throw DataError("checkpoint: ckld histogram bin count mismatch");
    }
    histograms.emplace_back(std::move(histogram));
    baselines.push_back(dec.doubles("ckld baseline", 1u << 20));
    if (baselines.back().size() != config.bins) {
      throw DataError("checkpoint: ckld baseline size mismatch");
    }
    thresholds.push_back(dec.f64());
  }

  std::vector<double> training_margins =
      dec.doubles("ckld training margins", 1u << 20);
  if (training_margins.empty()) {
    throw DataError("checkpoint: ckld training margins missing");
  }

  config_ = std::move(config);
  histograms_ = std::move(histograms);
  baselines_ = std::move(baselines);
  scorings_.clear();
  scorings_.reserve(config_.groups);
  for (std::size_t g = 0; g < config_.groups; ++g) {
    scorings_.push_back(scoring_baseline(g));
  }
  thresholds_ = std::move(thresholds);
  training_margins_ = std::move(training_margins);
  calibration_ = ScoreCalibration::from_reference(training_margins_, 0.0,
                                                  config_.significance);
  fitted_ = true;
}

}  // namespace fdeta::core
