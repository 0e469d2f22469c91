// Tests of the CUSUM and EWMA sequential baselines and the seasonal-ARIMA
// option.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "attack/arima_attack.h"
#include "attack/integrated_arima_attack.h"
#include "common/error.h"
#include "eval/cusum_detector.h"
#include "tests/attack_test_helpers.h"
#include "timeseries/arima.h"

namespace fdeta::core {
namespace {

using testutil::ConsumerFixture;
using testutil::make_fixture;

class SequentialDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    f_ = make_fixture();
    cusum_.fit(f_.train());
    ewma_.fit(f_.train());
  }

  std::vector<Kw> over_attack() {
    Rng rng(5);
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = true;
    return attack::integrated_arima_attack_vector(
        f_.model, f_.history, f_.wstats, kSlotsPerWeek, rng, cfg);
  }

  ConsumerFixture f_;
  CusumDetector cusum_;
  EwmaDetector ewma_;
};

TEST_F(SequentialDetectorTest, CleanWeeksPass) {
  for (std::size_t w = 0; w < f_.split.test_weeks; ++w) {
    const auto week = f_.split.test_week(f_.series, w);
    EXPECT_FALSE(cusum_.flag_week(week)) << "cusum week " << w;
    EXPECT_FALSE(ewma_.flag_week(week)) << "ewma week " << w;
  }
}

TEST_F(SequentialDetectorTest, SustainedShiftDetected) {
  // A persistent +3-sigma-ish shift: the bread-and-butter CUSUM case.
  std::vector<Kw> shifted(f_.clean_week().begin(), f_.clean_week().end());
  for (double& v : shifted) v *= 2.0;
  EXPECT_TRUE(cusum_.flag_week(shifted));
  EXPECT_TRUE(ewma_.flag_week(shifted));
}

TEST_F(SequentialDetectorTest, IntegratedAttackMovesStatistic) {
  const auto attack = over_attack();
  EXPECT_GT(cusum_.peak_statistic(attack),
            cusum_.peak_statistic(f_.clean_week()));
  EXPECT_GT(ewma_.peak_statistic(attack),
            ewma_.peak_statistic(f_.clean_week()));
}

TEST_F(SequentialDetectorTest, ThresholdsCalibratedAboveTraining) {
  const auto train = f_.train();
  for (std::size_t w = 0; w < f_.split.train_weeks; ++w) {
    const std::span<const Kw> week{train.data() + w * kSlotsPerWeek,
                                   static_cast<std::size_t>(kSlotsPerWeek)};
    EXPECT_LE(cusum_.peak_statistic(week), cusum_.threshold());
    EXPECT_LE(ewma_.peak_statistic(week), ewma_.threshold());
  }
}

TEST_F(SequentialDetectorTest, RequireFitAndValidConfig) {
  CusumDetector unfitted;
  EXPECT_THROW(unfitted.flag_week(f_.clean_week()), InvalidArgument);
  EXPECT_THROW(CusumDetector({.drift_k = -1.0}), InvalidArgument);
  EXPECT_THROW(EwmaDetector({.lambda = 0.0}), InvalidArgument);
  EXPECT_THROW(EwmaDetector({.lambda = 1.5}), InvalidArgument);
}

// --- Seasonal ARIMA ---------------------------------------------------------

TEST(SeasonalArima, SeasonalTermImprovesResidualVariance) {
  // Consumption data has a strong daily cycle; adding a seasonal AR term at
  // lag 48 should not worsen (and typically shrinks) the residual variance.
  const auto f = make_fixture(41);
  const auto plain = ts::ArimaModel::fit(f.train(), {.p = 3, .d = 0, .q = 1});
  const auto seasonal = ts::ArimaModel::fit(
      f.train(), {.p = 3, .d = 0, .q = 1, .sp = 1, .season = 48});
  EXPECT_LE(seasonal.sigma2(), plain.sigma2() * 1.02);
  EXPECT_EQ(seasonal.seasonal_ar().size(), 1u);
}

TEST(SeasonalArima, RecoversSyntheticSeasonalProcess) {
  // z_t = 0.3 z_{t-1} + 0.5 z_{t-4} + e_t with season 4.
  Rng rng(6);
  std::vector<double> z(40000, 0.0);
  for (std::size_t t = 4; t < z.size(); ++t) {
    z[t] = 0.3 * z[t - 1] + 0.5 * z[t - 4] + rng.normal();
  }
  const auto model =
      ts::ArimaModel::fit(z, {.p = 1, .d = 0, .q = 0, .sp = 1, .season = 4});
  EXPECT_NEAR(model.ar()[0], 0.3, 0.05);
  EXPECT_NEAR(model.seasonal_ar()[0], 0.5, 0.05);
}

TEST(SeasonalArima, ForecasterUsesSeasonalLag) {
  // Deterministic period-4 pattern: the seasonal model predicts the next
  // value from one period back.
  std::vector<double> series;
  Rng rng(7);
  for (int r = 0; r < 3000; ++r) {
    for (double base : {1.0, 5.0, 2.0, 8.0}) {
      series.push_back(base + rng.normal(0.0, 0.05));
    }
  }
  const auto model = ts::ArimaModel::fit(
      series, {.p = 1, .d = 0, .q = 0, .sp = 1, .season = 4});
  auto forecaster = model.forecaster(series);
  // Next value continues the cycle at "1.0".
  EXPECT_NEAR(forecaster.next().mean, 1.0, 0.5);
}

TEST(SeasonalArima, RollingCoverageStaysNominal) {
  Rng rng(8);
  std::vector<double> z(14000, 0.0);
  for (std::size_t t = 4; t < z.size(); ++t) {
    z[t] = 0.2 * z[t - 1] + 0.6 * z[t - 4] + rng.normal();
  }
  const std::vector<double> train(z.begin(), z.begin() + 12000);
  const auto model =
      ts::ArimaModel::fit(train, {.p = 1, .d = 0, .q = 0, .sp = 1, .season = 4});
  auto forecaster = model.forecaster(train);
  std::size_t inside = 0, total = 0;
  for (std::size_t t = 12000; t < z.size(); ++t) {
    if (forecaster.next().contains(z[t], 1.96)) ++inside;
    ++total;
    forecaster.observe(z[t]);
  }
  EXPECT_NEAR(static_cast<double>(inside) / total, 0.95, 0.02);
}

TEST(SeasonalArima, ValidatesSeasonalConfig) {
  const std::vector<double> series(2000, 1.0);
  EXPECT_THROW(
      ts::ArimaModel::fit(series, {.p = 1, .d = 0, .q = 0, .sp = 1, .season = 1}),
      InvalidArgument);
}

}  // namespace
}  // namespace fdeta::core
