#include "eval/isolation_forest_detector.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "stats/quantile.h"

namespace fdeta::core {

namespace {

constexpr std::size_t kF = IsolationForestDetector::kFeatureCount;
constexpr std::size_t kSlotsPerDay = 48;

void validate_config(const IsolationForestDetectorConfig& config) {
  require(config.trees >= 1, "IsolationForestDetector: need >= 1 tree");
  require(config.sample_size >= 2,
          "IsolationForestDetector: need sample_size >= 2");
  require(config.significance > 0.0 && config.significance < 1.0,
          "IsolationForestDetector: significance must be in (0,1)");
  require(config.contamination >= 0.0 && config.contamination < 1.0,
          "IsolationForestDetector: contamination must be in [0,1)");
}

// Engineered weekly feature vector (SNIPPETS.md Snippet 1's feature set,
// expressed as differences rather than ratios so every feature is finite on
// all-zero weeks).  `offset` is the week's first absolute slot mod 336, so
// calendar-position features survive unaligned windows.
void weekly_features(std::span<const Kw> week, std::size_t offset,
                     double* out) {
  const std::size_t n = week.size();
  double sum = 0.0;
  double peak_sum = 0.0, off_sum = 0.0;
  double wend_sum = 0.0, wday_sum = 0.0;
  std::size_t peak_n = 0, off_n = 0, wend_n = 0, wday_n = 0;
  double hi = week[0], lo = week[0];
  for (std::size_t i = 0; i < n; ++i) {
    const double v = week[i];
    sum += v;
    hi = std::max(hi, v);
    lo = std::min(lo, v);
    const std::size_t s =
        (offset + i) % static_cast<std::size_t>(kSlotsPerWeek);
    const std::size_t hour = (s % kSlotsPerDay) / 2;
    if (hour >= 7 && hour < 22) {
      peak_sum += v;
      ++peak_n;
    } else {
      off_sum += v;
      ++off_n;
    }
    if (s / kSlotsPerDay >= 5) {
      wend_sum += v;
      ++wend_n;
    } else {
      wday_sum += v;
      ++wday_n;
    }
  }
  const double mean = sum / static_cast<double>(n);
  double ss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = week[i] - mean;
    ss += d * d;
  }
  double lag1 = 0.0;
  for (std::size_t i = 1; i < n; ++i) lag1 += std::abs(week[i] - week[i - 1]);
  double lag_day = 0.0;
  for (std::size_t i = kSlotsPerDay; i < n; ++i) {
    lag_day += std::abs(week[i] - week[i - kSlotsPerDay]);
  }

  out[0] = mean;
  out[1] = std::sqrt(ss / static_cast<double>(n));
  out[2] = (peak_n ? peak_sum / static_cast<double>(peak_n) : 0.0) -
           (off_n ? off_sum / static_cast<double>(off_n) : 0.0);
  out[3] = (wend_n ? wend_sum / static_cast<double>(wend_n) : 0.0) -
           (wday_n ? wday_sum / static_cast<double>(wday_n) : 0.0);
  out[4] = lag1 / static_cast<double>(n - 1);
  out[5] = lag_day / static_cast<double>(n - kSlotsPerDay);
  out[6] = hi;
  out[7] = lo;
}

// Expected unsuccessful-search path length of an n-point isolation subtree
// (Liu et al.'s c(n)); 0 for n <= 1.
double c_factor(std::size_t n) {
  if (n <= 1) return 0.0;
  constexpr double kEulerGamma = 0.57721566490153286;
  const double m = static_cast<double>(n);
  return 2.0 * (std::log(m - 1.0) + kEulerGamma) - 2.0 * (m - 1.0) / m;
}

}  // namespace

IsolationForestDetector::IsolationForestDetector(
    IsolationForestDetectorConfig config)
    : config_(config) {
  validate_config(config_);
}

void IsolationForestDetector::standardize(const double* raw,
                                          double* out) const {
  for (std::size_t f = 0; f < kF; ++f) {
    out[f] = (raw[f] - feature_mean_[f]) / feature_std_[f];
  }
}

void IsolationForestDetector::fit(std::span<const Kw> training) {
  require(training.size() % kSlotsPerWeek == 0,
          "IsolationForestDetector: training must be whole weeks");
  const std::size_t weeks = training.size() / kSlotsPerWeek;
  require(weeks >= 4,
          "IsolationForestDetector: need at least four training weeks");

  // Feature matrix (weeks x kF), then per-feature standardization so random
  // split values treat all features on a comparable scale.
  std::vector<double> features(weeks * kF);
  for (std::size_t w = 0; w < weeks; ++w) {
    const std::span<const Kw> week{training.data() + w * kSlotsPerWeek,
                                   static_cast<std::size_t>(kSlotsPerWeek)};
    weekly_features(week, 0, features.data() + w * kF);
  }
  feature_mean_.assign(kF, 0.0);
  feature_std_.assign(kF, 0.0);
  for (std::size_t f = 0; f < kF; ++f) {
    double mean = 0.0;
    for (std::size_t w = 0; w < weeks; ++w) mean += features[w * kF + f];
    mean /= static_cast<double>(weeks);
    double ss = 0.0;
    for (std::size_t w = 0; w < weeks; ++w) {
      const double d = features[w * kF + f] - mean;
      ss += d * d;
    }
    feature_mean_[f] = mean;
    const double sd = std::sqrt(ss / static_cast<double>(weeks));
    feature_std_[f] = sd < 1e-12 ? 1.0 : sd;  // constant feature: identity
  }
  for (std::size_t w = 0; w < weeks; ++w) {
    double* row = features.data() + w * kF;
    standardize(row, row);
  }

  // Cap the subsample strictly below the week count so every week has
  // out-of-bag trees (trees whose subsample excludes it).  The original
  // min(sample_size, weeks) put every training week in every tree on short
  // histories, making the training scores fully in-sample and the
  // (1 - significance) quantile land on the in-sample maximum — a threshold
  // no out-of-sample test week could reach (the zero-recall bug).
  sample_size_ =
      std::min(config_.sample_size,
               std::max<std::size_t>(2, (3 * weeks) / 4));
  const std::size_t depth_limit = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(sample_size_))));

  trees_.clear();
  trees_.resize(config_.trees);
  const Rng root_rng(config_.seed);
  std::vector<std::size_t> indices(weeks);
  std::vector<std::size_t> scratch;
  // Per-tree subsample membership, kept only through fit: training weeks are
  // scored over their out-of-bag trees so the reference scores live on the
  // same scale as test weeks (which are in no tree's subsample).
  std::vector<char> in_sample(config_.trees * weeks, 0);
  for (std::size_t t = 0; t < config_.trees; ++t) {
    Rng rng = root_rng.spawn(t);
    // Subsample without replacement: partial Fisher-Yates over week indices.
    std::iota(indices.begin(), indices.end(), 0);
    for (std::size_t i = 0; i < sample_size_; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(
                                    rng.below(weeks - i));
      std::swap(indices[i], indices[j]);
    }
    scratch.assign(indices.begin(),
                   indices.begin() + static_cast<std::ptrdiff_t>(sample_size_));
    for (std::size_t i = 0; i < sample_size_; ++i) {
      in_sample[t * weeks + indices[i]] = 1;
    }

    // Recursive build over [begin, end) of `scratch`, in preorder node
    // layout (node, left subtree, right subtree).
    Tree& tree = trees_[t];
    tree.nodes.clear();
    const auto build = [&](auto&& self, std::size_t begin, std::size_t end,
                           std::size_t depth) -> std::uint32_t {
      const std::uint32_t node_index =
          static_cast<std::uint32_t>(tree.nodes.size());
      tree.nodes.emplace_back();
      const std::size_t count = end - begin;
      if (count <= 1 || depth >= depth_limit) {
        tree.nodes[node_index].feature = kLeaf;
        tree.nodes[node_index].size = static_cast<std::uint32_t>(count);
        return node_index;
      }
      // Features with spread among the node's points are splittable.
      std::array<std::uint32_t, kF> splittable{};
      std::array<double, kF> f_lo{}, f_hi{};
      std::size_t n_splittable = 0;
      for (std::size_t f = 0; f < kF; ++f) {
        double lo = features[scratch[begin] * kF + f];
        double hi = lo;
        for (std::size_t i = begin + 1; i < end; ++i) {
          const double v = features[scratch[i] * kF + f];
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        if (hi > lo) {
          splittable[n_splittable] = static_cast<std::uint32_t>(f);
          f_lo[n_splittable] = lo;
          f_hi[n_splittable] = hi;
          ++n_splittable;
        }
      }
      if (n_splittable == 0) {  // duplicate points: cannot isolate further
        tree.nodes[node_index].feature = kLeaf;
        tree.nodes[node_index].size = static_cast<std::uint32_t>(count);
        return node_index;
      }
      const std::size_t pick =
          static_cast<std::size_t>(rng.below(n_splittable));
      const std::uint32_t feature = splittable[pick];
      const double split = rng.uniform(f_lo[pick], f_hi[pick]);
      const auto mid = std::stable_partition(
          scratch.begin() + static_cast<std::ptrdiff_t>(begin),
          scratch.begin() + static_cast<std::ptrdiff_t>(end),
          [&](std::size_t w) { return features[w * kF + feature] < split; });
      const std::size_t split_at =
          static_cast<std::size_t>(mid - scratch.begin());
      const std::uint32_t left = self(self, begin, split_at, depth + 1);
      const std::uint32_t right = self(self, split_at, end, depth + 1);
      Node& node = tree.nodes[node_index];  // emplace_backs may reallocate
      node.feature = feature;
      node.split = split;
      node.left = left;
      node.right = right;
      node.size = static_cast<std::uint32_t>(count);
      return node_index;
    };
    build(build, 0, sample_size_, 0);
  }
  fitted_ = true;

  // Out-of-bag training scores: each week is averaged over the trees whose
  // subsample excluded it, so reference and test-time scores are drawn from
  // the same distribution.  (A week sampled into every tree — impossible
  // under the 3/4 cap unless trees are few — falls back to all trees.)
  std::vector<double> training_scores;
  training_scores.reserve(weeks);
  for (std::size_t w = 0; w < weeks; ++w) {
    double total = 0.0;
    std::size_t oob = 0;
    for (std::size_t t = 0; t < config_.trees; ++t) {
      if (in_sample[t * weeks + w]) continue;
      total += tree_path_length(trees_[t], features.data() + w * kF);
      ++oob;
    }
    const double avg =
        oob > 0 ? total / static_cast<double>(oob)
                : average_path_length(features.data() + w * kF);
    training_scores.push_back(std::exp2(-avg / c_factor(sample_size_)));
  }

  // Contamination-adjusted threshold quantile.  The naive (1 - significance)
  // quantile of the training scores lands next to the sample maximum — the
  // score of the most anomalous (vacation/outlier) training week, which no
  // attack week reliably exceeds (the zero-recall bug).  Unlike the KLD
  // families, whose training divergences are a clean null sample, the
  // forest's reference is contaminated by the very anomalies it exists to
  // find, so the uncontaminated weeks occupy only the lower (1 - c) of the
  // order statistics: the honest (1 - significance) tail of the *inlier*
  // score distribution is the (1 - c) * (1 - significance) empirical
  // quantile of the full reference.
  threshold_ = stats::threshold_quantile(
      training_scores,
      (1.0 - config_.contamination) * (1.0 - config_.significance));
}

double IsolationForestDetector::tree_path_length(const Tree& tree,
                                                 const double* features) {
  std::size_t node = 0;
  double depth = 0.0;
  while (tree.nodes[node].feature != kLeaf) {
    const Node& n = tree.nodes[node];
    node = features[n.feature] < n.split ? n.left : n.right;
    depth += 1.0;
  }
  return depth + c_factor(tree.nodes[node].size);
}

double IsolationForestDetector::average_path_length(
    const double* features) const {
  double total = 0.0;
  for (const Tree& tree : trees_) total += tree_path_length(tree, features);
  return total / static_cast<double>(trees_.size());
}

bool IsolationForestDetector::flag_week(std::span<const Kw> week,
                                        SlotIndex first_slot) const {
  require(fitted_, "IsolationForestDetector: fit() not called");
  require(week.size() == static_cast<std::size_t>(kSlotsPerWeek),
          "IsolationForestDetector: week must be kSlotsPerWeek readings");
  double raw[kF];
  double z[kF];
  weekly_features(week,
                  static_cast<std::size_t>(first_slot) %
                      static_cast<std::size_t>(kSlotsPerWeek),
                  raw);
  standardize(raw, z);
  return std::exp2(-average_path_length(z) / c_factor(sample_size_)) >
         threshold_;
}

}  // namespace fdeta::core
