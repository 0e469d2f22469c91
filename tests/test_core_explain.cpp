// Per-bin KLD explanation tests: the breakdown must reproduce score(week)
// exactly (bit-for-bit, since terms accumulate in kl_divergence_bits order),
// carry the detector's frozen bin edges, and reach verdicts through the
// pipeline only when asked for.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/conditioned_kld_detector.h"
#include "core/detector_registry.h"
#include "core/evidence.h"
#include "core/kld_detector.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "meter/dataset.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace fdeta::core {
namespace {

std::vector<Kw> scaled_week(std::span<const Kw> week, double factor) {
  std::vector<Kw> out(week.begin(), week.end());
  for (auto& v : out) v *= factor;
  return out;
}

double bits_sum(const KldExplanation& explanation) {
  double sum = 0.0;
  for (const auto& bin : explanation.bins) sum += bin.bits;
  return sum;
}

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = datagen::small_dataset(1, 16, 11);
    split_ = meter::TrainTestSplit{.train_weeks = 12, .test_weeks = 4};
  }

  meter::Dataset dataset_;
  meter::TrainTestSplit split_;
};

TEST_F(ExplainTest, BitsSumReproducesScoreExactly) {
  // Both single-model families: the whole week, and the k selected slots.
  for (const std::string_view family : {"kld", "kld-lite"}) {
    const auto detector = make_detector(family, {});
    detector->fit(split_.train(dataset_.consumer(0)));

    for (const double factor : {1.0, 0.25, 3.0}) {
      SCOPED_TRACE(::testing::Message()
                   << family << " factor " << factor);
      const auto week = scaled_week(dataset_.consumer(0).week(12), factor);
      const auto explanation = detector->raw_explain_week(week);
      const double score = detector->raw_score_week(week);
      EXPECT_EQ(explanation.score, score);
      // The acceptance contract: contributions sum to K_A within 1e-12.  The
      // mirrored accumulation order makes this exact in practice.
      EXPECT_NEAR(bits_sum(explanation), score, 1e-12);
      EXPECT_EQ(explanation.threshold, detector->raw_decision_threshold());
    }
  }
}

TEST_F(ExplainTest, BinsCarryHistogramEdgesAndMasses) {
  KldDetector detector;
  detector.fit(split_.train(dataset_.consumer(0)));
  const auto explanation = detector.explain(dataset_.consumer(0).week(12));

  const auto edges = detector.edges();
  ASSERT_EQ(explanation.bins.size(), detector.config().bins);
  ASSERT_EQ(edges.size(), explanation.bins.size() + 1);
  double p_total = 0.0;
  for (std::size_t j = 0; j < explanation.bins.size(); ++j) {
    const auto& bin = explanation.bins[j];
    EXPECT_EQ(bin.bin, j);
    EXPECT_DOUBLE_EQ(bin.lower, edges[j]);
    EXPECT_DOUBLE_EQ(bin.upper, edges[j + 1]);
    EXPECT_GE(bin.p, 0.0);
    EXPECT_GE(bin.q, 0.0);
    if (bin.p == 0.0) {
      EXPECT_EQ(bin.bits, 0.0);
    }
    p_total += bin.p;
  }
  EXPECT_NEAR(p_total, 1.0, 1e-12);
}

TEST_F(ExplainTest, EpsilonZeroOutOfSupportWeekIsInfinite) {
  KldDetector detector(KldDetectorConfig{.epsilon = 0.0});
  detector.fit(split_.train(dataset_.consumer(0)));
  // Push every reading far above the training range: all mass lands in the
  // overflow-adjacent top bin, which the training weeks may never have
  // touched.  With epsilon = 0 that is a division by q = 0.
  const auto week = scaled_week(dataset_.consumer(0).week(12), 50.0);
  const double score = detector.score(week);
  const auto explanation = detector.explain(week);
  EXPECT_EQ(explanation.score, score);
  if (std::isinf(score)) {
    bool saw_infinite_bin = false;
    for (const auto& bin : explanation.bins) {
      if (std::isinf(bin.bits)) saw_infinite_bin = true;
    }
    EXPECT_TRUE(saw_infinite_bin);
  }
}

TEST_F(ExplainTest, ConditionedExplanationsMatchGroupScores) {
  ConditionedKldDetector detector;
  detector.fit(split_.train(dataset_.consumer(0)));

  const auto week = scaled_week(dataset_.consumer(0).week(12), 0.25);
  const auto scores = detector.scores(week);
  const auto& thresholds = detector.thresholds();
  const auto explanations = detector.explain(week);
  ASSERT_EQ(explanations.size(), scores.size());
  ASSERT_EQ(explanations.size(), thresholds.size());
  for (std::size_t g = 0; g < explanations.size(); ++g) {
    EXPECT_EQ(explanations[g].score, scores[g]) << "group " << g;
    EXPECT_NEAR(bits_sum(explanations[g]), scores[g], 1e-12)
        << "group " << g;
    EXPECT_EQ(explanations[g].threshold, thresholds[g]) << "group " << g;
  }
}

TEST(PipelineExplain, AttachedOnlyWhenConfiguredAndFlagged) {
  const auto actual = datagen::small_dataset(3, 16, 23);
  auto reported = actual;
  auto& readings = reported.consumer(0).readings;
  const auto slots = static_cast<std::size_t>(kSlotsPerWeek);
  for (std::size_t t = 12 * slots; t < 13 * slots; ++t) readings[t] *= 0.2;

  obs::MetricsRegistry registry;
  obs::EventLog log;  // stays disabled; keeps the default log untouched
  PipelineConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 12, .test_weeks = 4};
  config.metrics = &registry;
  config.events = &log;
  config.explain = true;
  FdetaPipeline pipeline(config);
  pipeline.fit(actual);
  const auto report =
      pipeline.evaluate_week(actual, reported, 12, EvidenceCalendar{});

  ASSERT_EQ(report.verdicts.size(), 3u);
  const auto& flagged = report.verdicts[0];
  ASSERT_NE(flagged.status, VerdictStatus::kNormal);
  ASSERT_TRUE(flagged.explanation.has_value());
  EXPECT_EQ(flagged.explanation->score, flagged.kld_score);
  EXPECT_EQ(flagged.explanation->threshold, flagged.kld_threshold);
  // The pipeline's verdict score is calibrated; the bins decompose the
  // family-native raw score the explanation header also carries.
  EXPECT_NEAR(bits_sum(*flagged.explanation), flagged.explanation->raw_score,
              1e-12);
  EXPECT_GT(flagged.explanation->raw_score,
            flagged.explanation->raw_threshold);
  for (const auto& v : report.verdicts) {
    if (v.status == VerdictStatus::kNormal) {
      EXPECT_FALSE(v.explanation.has_value());
    }
  }

  // Same run without the flag: no explanations anywhere.
  config.explain = false;
  FdetaPipeline plain(config);
  plain.fit(actual);
  const auto bare =
      plain.evaluate_week(actual, reported, 12, EvidenceCalendar{});
  for (const auto& v : bare.verdicts) {
    EXPECT_FALSE(v.explanation.has_value());
  }
}

}  // namespace
}  // namespace fdeta::core
