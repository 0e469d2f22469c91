// An unsupervised isolation-forest scorer over engineered weekly features.
//
// The spatio-temporal line of related work (*Towards Intelligent Energy
// Security*, PAPERS.md) motivates an unsupervised feature-space detector
// alongside the distributional KLD families: each week is summarised by a
// small engineered feature vector (level, spread, peak/off-peak and
// weekend/weekday structure, lag-1 and daily-lag roughness - the feature set
// of SNIPPETS.md Snippet 1), the training weeks are standardised in that
// space, and a forest of random isolation trees estimates how few random
// axis-aligned splits isolate a week from its own history.  Anomalous weeks
// isolate early: the score 2^(-E[path]/c(n)) approaches 1 for outliers and
// stays near 0.5 and below for inliers.  Training weeks are scored
// out-of-bag (over the trees whose subsample excluded them) so the
// reference distribution is comparable to test-time scores, and the
// threshold is the (1 - contamination) * (1 - significance) quantile of
// that reference (see IsolationForestDetectorConfig::contamination).
//
// Everything is deterministic under the config seed (fit draws from a
// seeded xoshiro stream, scoring draws nothing), so results are
// reproducible.  An evaluation-harness row (Tables II-III extensions, the
// golden attack matrix): the serving registry does not carry it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/detector.h"

namespace fdeta::core {

struct IsolationForestDetectorConfig {
  std::size_t trees = 64;
  /// Training weeks subsampled per tree (capped at the fitted week count).
  std::size_t sample_size = 32;
  /// Alpha of the training-score quantile threshold, as the KLD families.
  double significance = 0.05;
  /// Assumed anomalous fraction of the training weeks themselves.  The
  /// decision threshold is the (1 - contamination) * (1 - significance)
  /// quantile of the out-of-bag training scores: the (1 - significance)
  /// tail of the *uncontaminated* order statistics, not of a reference the
  /// forest itself considers partly anomalous.
  double contamination = 0.20;
  /// Seed of the tree-building stream; fixed default keeps fit() a pure
  /// function of the training data.
  std::uint64_t seed = 0x150F07357ULL;
};

class IsolationForestDetector final : public Detector {
 public:
  /// Weekly feature vector width (see weekly_features in the .cpp).
  static constexpr std::size_t kFeatureCount = 8;

  explicit IsolationForestDetector(IsolationForestDetectorConfig config = {});

  void fit(std::span<const Kw> training) override;

  /// True iff the week's forest score exceeds the fitted threshold.
  bool flag_week(std::span<const Kw> week,
                 SlotIndex first_slot = 0) const override;

 private:
  // One tree node; nodes of a tree live in a flat vector, children by index.
  // A leaf has feature == kLeaf and carries the point count it absorbed.
  struct Node {
    std::uint32_t feature = 0;
    double split = 0.0;
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::uint32_t size = 0;
  };
  static constexpr std::uint32_t kLeaf = 0xFFFFFFFFu;

  struct Tree {
    std::vector<Node> nodes;  // nodes[0] is the root
  };

  void standardize(const double* raw, double* out) const;
  static double tree_path_length(const Tree& tree, const double* features);
  double average_path_length(const double* features) const;

  IsolationForestDetectorConfig config_;
  bool fitted_ = false;
  std::vector<double> feature_mean_;  // kFeatureCount
  std::vector<double> feature_std_;   // kFeatureCount, floored at 1
  std::vector<Tree> trees_;
  std::size_t sample_size_ = 0;   // effective (capped) subsample
  double threshold_ = 0.0;
};

}  // namespace fdeta::core
