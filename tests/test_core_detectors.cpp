// Tests of the ARIMA, Integrated ARIMA, KLD and PCA detectors against clean
// weeks and crafted attack weeks, of the harness's FleetDetector adapter,
// and of the serving registry's names and option keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "attack/arima_attack.h"
#include "attack/integrated_arima_attack.h"
#include "common/error.h"
#include "core/detector_registry.h"
#include "datagen/generator.h"
#include "eval/arima_detector.h"
#include "eval/fleet_detector.h"
#include "eval/integrated_arima_detector.h"
#include "eval/pca_detector.h"
#include "tests/attack_test_helpers.h"

namespace fdeta::core {
namespace {

using testutil::ConsumerFixture;
using testutil::make_fixture;

class DetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    f_ = make_fixture();
    arima_.fit(f_.train());
    integrated_.fit(f_.train());
    kld_.fit(f_.train());
  }

  ConsumerFixture f_;
  ArimaDetector arima_;
  IntegratedArimaDetector integrated_;
  FleetDetector kld_{"kld", {.kld = {.bins = 10, .significance = 0.05}}};
};

TEST_F(DetectorTest, CleanWeeksPassAllDetectors) {
  for (std::size_t w = 0; w < f_.split.test_weeks; ++w) {
    const auto week = f_.split.test_week(f_.series, w);
    EXPECT_FALSE(arima_.flag_week(week)) << "week " << w;
    EXPECT_FALSE(integrated_.flag_week(week)) << "week " << w;
  }
}

TEST_F(DetectorTest, CrudeZeroAttackCaught) {
  const std::vector<Kw> zeros(kSlotsPerWeek, 0.0);
  // The rolling ARIMA model is poisoned by the sustained zeros (and small
  // consumers' confidence bands can even include zero), so the plain
  // per-reading check is blind - the weakness ref [2] documents.  The
  // window checks and the KLD distribution check catch it outright.
  EXPECT_TRUE(integrated_.flag_week(zeros));
  EXPECT_TRUE(kld_.flag_week(zeros));
}

TEST_F(DetectorTest, CrudeSpikeAttackCaughtByArima) {
  auto week = std::vector<Kw>(f_.clean_week().begin(), f_.clean_week().end());
  // Scatter absurd spikes through the week.
  for (std::size_t t = 0; t < week.size(); t += 4) week[t] += 50.0;
  EXPECT_TRUE(arima_.flag_week(week));
}

TEST_F(DetectorTest, ArimaAttackEvadesArimaDetector) {
  attack::ArimaAttackConfig cfg;
  cfg.direction = attack::Direction::kOverReport;
  const auto v =
      attack::arima_attack_vector(arima_.model(), f_.history, kSlotsPerWeek, cfg);
  EXPECT_FALSE(arima_.flag_week(v));
}

TEST_F(DetectorTest, ArimaAttackCaughtByIntegratedWindowChecks) {
  // Riding the upper CI drives the weekly mean far above the historic
  // maximum: exactly what the Integrated detector's mean check catches.
  attack::ArimaAttackConfig cfg;
  cfg.direction = attack::Direction::kOverReport;
  const auto v =
      attack::arima_attack_vector(arima_.model(), f_.history, kSlotsPerWeek, cfg);
  EXPECT_TRUE(integrated_.window_checks_fail(v));
  EXPECT_TRUE(integrated_.flag_week(v));
}

TEST_F(DetectorTest, IntegratedAttackEvadesIntegratedButNotKld) {
  Rng rng(3);
  attack::IntegratedAttackConfig cfg;
  cfg.over_report = true;
  const auto v = attack::integrated_arima_attack_vector(
      arima_.model(), f_.history, f_.wstats, kSlotsPerWeek, rng, cfg);
  EXPECT_FALSE(integrated_.flag_week(v));
  EXPECT_TRUE(kld_.flag_week(v))
      << "KLD score " << kld_.fleet().raw_score_week(0, v) << " vs threshold "
      << kld_.fleet().raw_decision_threshold(0);
}

TEST_F(DetectorTest, ViolationThresholdCalibratedAboveCleanWeeks) {
  for (std::size_t w = 0; w < f_.split.test_weeks; ++w) {
    const auto week = f_.split.test_week(f_.series, w);
    EXPECT_LE(arima_.violation_count(week), arima_.violation_threshold())
        << "week " << w;
  }
}

TEST_F(DetectorTest, DetectorsRequireFitBeforeUse) {
  ArimaDetector unfitted;
  EXPECT_THROW(unfitted.flag_week(f_.clean_week()), InvalidArgument);
  for (const std::string_view family : registered_detector_names()) {
    const FleetDetector unfitted_fleet{std::string(family)};
    EXPECT_THROW(unfitted_fleet.flag_week(f_.clean_week()), InvalidArgument)
        << family;
    EXPECT_THROW(unfitted_fleet.fleet(), InvalidArgument) << family;
  }
  IntegratedArimaDetector unfitted_int;
  EXPECT_THROW(unfitted_int.flag_week(f_.clean_week()), InvalidArgument);
}

// A refit that throws keeps the previous fit: every family's scores,
// threshold and rows are unchanged bit for bit, whether the training is
// rejected up front (not whole weeks, too few weeks) or only once fitting
// has begun (an infinite reading makes the frozen bin edges non-finite).
TEST_F(DetectorTest, FailedRefitKeepsThePreviousFit) {
  const auto train = f_.train();
  std::vector<Kw> infinite(train.begin(), train.end());
  std::fill_n(infinite.begin(), kSlotsPerWeek,
              std::numeric_limits<double>::infinity());
  const std::vector<std::vector<Kw>> malformed = {
      {train.begin(), train.end() - 1},
      {train.begin(), train.begin() + 3 * kSlotsPerWeek},
      infinite};
  const auto week = f_.clean_week();
  const auto same = [](std::span<const double> a, std::span<const double> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  for (const std::string_view family : registered_detector_names()) {
    FleetDetector detector{std::string(family)};
    detector.fit(train);
    const DetectorFleet before = detector.fleet();
    for (const std::vector<Kw>& training : malformed) {
      EXPECT_THROW(detector.fit(training), InvalidArgument) << family;
      const DetectorFleet& after = detector.fleet();
      ASSERT_EQ(after.size(), 1u) << family;
      EXPECT_EQ(after.raw_score_week(0, week), before.raw_score_week(0, week))
          << family;
      EXPECT_EQ(after.score_week(0, week), before.score_week(0, week))
          << family;
      EXPECT_EQ(after.raw_decision_threshold(0),
                before.raw_decision_threshold(0))
          << family;
      for (std::size_t g = 0; g < after.groups(); ++g) {
        EXPECT_TRUE(same(after.edges(0, g), before.edges(0, g))) << family;
        EXPECT_TRUE(same(after.baseline(0, g), before.baseline(0, g)))
            << family;
      }
      EXPECT_TRUE(same(after.reference(0), before.reference(0))) << family;
    }
  }
}

TEST_F(DetectorTest, KldScoreZeroForTrainingDistributionItself) {
  // A "week" drawn as the whole training set has the X distribution exactly.
  EXPECT_NEAR(kld_.fleet().raw_score_week(0, f_.train()), 0.0, 1e-9);
}

TEST_F(DetectorTest, KldThresholdIsQuantileOfTrainingScores) {
  const DetectorFleet& kld = kld_.fleet();
  const auto k = kld.reference(0);
  ASSERT_EQ(k.size(), f_.split.train_weeks);
  std::size_t above = 0;
  for (double v : k) {
    if (v > kld.raw_decision_threshold(0)) ++above;
  }
  // At 5% significance over 12 weeks, at most one training week is above.
  EXPECT_LE(above, 1u);
}

TEST(KldDetector, HandComputedTinyCase) {
  // Training: two "weeks" (the detector requires >= 4, so use 4) with values
  // in two well-separated clusters; a test week entirely in one cluster has
  // a hand-computable divergence.
  std::vector<Kw> training;
  for (int w = 0; w < 4; ++w) {
    for (int t = 0; t < 336; ++t) {
      training.push_back(t % 2 == 0 ? 1.0 : 3.0);  // 50/50 split
    }
  }
  FleetDetector detector("kld", {.kld = {.bins = 2, .significance = 0.05}});
  detector.fit(training);
  // Baseline: p = (0.5, 0.5).  A week entirely at 1.0: p = (1, 0).
  // K = 1 * log2(1/0.5) = 1 bit.
  const std::vector<Kw> week(336, 1.0);
  EXPECT_NEAR(detector.fleet().raw_score_week(0, week), 1.0, 1e-12);
  // Training weeks match the baseline exactly: thresholds are ~0, so the
  // anomalous week must be flagged.
  EXPECT_TRUE(detector.flag_week(week));
}

TEST(KldDetector, MoreBinsRaiseResolution) {
  const auto f = make_fixture(7);
  FleetDetector coarse("kld", {.kld = {.bins = 2, .significance = 0.05}});
  FleetDetector fine("kld", {.kld = {.bins = 40, .significance = 0.05}});
  coarse.fit(f.train());
  fine.fit(f.train());
  // A subtle shift attack: +25% everywhere.
  std::vector<Kw> shifted(f.clean_week().begin(), f.clean_week().end());
  for (double& v : shifted) v *= 1.25;
  // Finer binning gives at least as large a divergence.
  EXPECT_GE(fine.fleet().raw_score_week(0, shifted),
            coarse.fleet().raw_score_week(0, shifted) - 1e-9);
}

TEST(KldDetector, ConfigValidation) {
  for (const KldDetectorConfig kld : {
           KldDetectorConfig{.bins = 1, .significance = 0.05},
           KldDetectorConfig{.bins = 10, .significance = 0.0},
           KldDetectorConfig{.bins = 10, .significance = 1.0}}) {
    EXPECT_THROW(FleetDetector("kld", {.kld = kld}), InvalidArgument);
    EXPECT_THROW(DetectorFleet("kld", {.kld = kld}, 1, 4), InvalidArgument);
  }
  for (const std::size_t slots : {0, kSlotsPerWeek + 1}) {
    EXPECT_THROW(FleetDetector("kld-lite", {.reduced_slots = slots}),
                 InvalidArgument);
  }
}

// One bins bound for fit and restore: a config the checkpoint decoder would
// refuse to restore is refused at construction, for every family.
TEST(KldDetector, BinsAboveTheRestoreBoundAreRejected) {
  const KldDetectorConfig kld{.bins = kMaxKldBins + 1};
  for (const std::string_view family : registered_detector_names()) {
    EXPECT_THROW(FleetDetector(std::string(family), {.kld = kld}),
                 InvalidArgument)
        << family;
    EXPECT_THROW(DetectorFleet(std::string(family), {.kld = kld}, 1, 4),
                 InvalidArgument)
        << family;
  }
  EXPECT_THROW(FleetDetector(ConditionedKldDetectorConfig{.kld = kld}),
               InvalidArgument);
  EXPECT_NO_THROW(FleetDetector("kld", {.kld = {.bins = kMaxKldBins}}));
}

TEST(DetectorOptions, BinsAboveTheRestoreBoundAreRejected) {
  DetectorOptions options;
  EXPECT_THROW(apply_detector_option(options, "kld.bins=1048577"),
               std::invalid_argument);
  EXPECT_EQ(options.kld.bins, KldDetectorConfig{}.bins);
  apply_detector_option(options, "kld.bins=1048576");
  EXPECT_EQ(options.kld.bins, kMaxKldBins);
}

TEST(KldDetector, RejectsNonFiniteEpsilon) {
  const KldDetectorConfig kld{
      .epsilon = std::numeric_limits<double>::infinity()};
  for (const std::string_view family : registered_detector_names()) {
    EXPECT_THROW(FleetDetector(std::string(family), {.kld = kld}),
                 InvalidArgument)
        << family;
  }
  EXPECT_THROW(FleetDetector(ConditionedKldDetectorConfig{.kld = kld}),
               InvalidArgument);
}

TEST(DetectorOptions, RejectNonFiniteNumbers) {
  DetectorOptions options;
  for (const char* spec :
       {"kld.epsilon=inf", "kld.epsilon=nan", "kld.significance=inf"}) {
    EXPECT_THROW(apply_detector_option(options, spec), std::invalid_argument)
        << spec;
  }
  EXPECT_EQ(options.kld.epsilon, KldDetectorConfig{}.epsilon);
}

// The serving registry holds the three eq.-(12) families only: a retired
// family name or option key fails fast, naming what is registered.
TEST(Registry, RejectsUnregisteredFamiliesAndKeys) {
  EXPECT_FALSE(is_registered_detector("iforest"));
  try {
    DetectorFleet("iforest", {}, 1, 4);
    ADD_FAILURE() << "DetectorFleet accepted \"iforest\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kld, ckld, kld-lite"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(FleetDetector("iforest"), std::invalid_argument);
  DetectorOptions options;
  for (const char* spec : {"iforest.trees=8", "iforest.samples=16",
                           "iforest.contamination=0.1", "iforest.seed=7"}) {
    try {
      apply_detector_option(options, spec);
      ADD_FAILURE() << "apply_detector_option accepted " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
      EXPECT_NE(what.find("known keys:"), std::string::npos) << what;
      EXPECT_NE(what.find("kld-lite.slots"), std::string::npos) << what;
    }
  }
}

TEST(KldDetector, RequiresWholeWeeks) {
  FleetDetector d("kld");
  EXPECT_THROW(d.fit(std::vector<Kw>(100, 1.0)), InvalidArgument);
}

TEST(PcaDetector, FlagsShapeAnomalies) {
  // PCA needs a longer training horizon than the KLD detector to generalise
  // (the basis overfits small week-matrices), so use 30 training weeks.
  const auto dataset = datagen::small_dataset(1, 34, 11);
  const auto& series = dataset.consumer(0);
  const meter::TrainTestSplit split{.train_weeks = 30, .test_weeks = 4};
  PcaDetector pca({.explained_fraction = 0.80, .significance = 0.05});
  pca.fit(split.train(series));

  // A shape-inverted week (day/night flipped) must be flagged even though
  // its value distribution is identical to the clean week's.
  const auto clean = split.test_week(series, 0);
  std::vector<Kw> inverted(clean.begin(), clean.end());
  for (std::size_t d = 0; d < 7; ++d) {
    std::reverse(inverted.begin() + d * kSlotsPerDay,
                 inverted.begin() + (d + 1) * kSlotsPerDay);
  }
  EXPECT_TRUE(pca.flag_week(inverted));
  EXPECT_GT(pca.score(inverted), pca.score(clean));
}

TEST(PcaDetector, ScoreBelowThresholdForTrainingWeeks) {
  const auto f = make_fixture(13);
  PcaDetector pca;
  pca.fit(f.train());
  const auto train = f.train();
  std::size_t above = 0;
  for (std::size_t w = 0; w < f.split.train_weeks; ++w) {
    const std::span<const Kw> week{train.data() + w * kSlotsPerWeek,
                                   static_cast<std::size_t>(kSlotsPerWeek)};
    if (pca.score(week) > pca.threshold()) ++above;
  }
  EXPECT_LE(above, 1u);
}

}  // namespace
}  // namespace fdeta::core
