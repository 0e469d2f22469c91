// Tests of the extension modules: sliding-week time-to-detection, the
// weekly-profile detector, the combined 2B+3B attack, and the measurement
// error model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "attack/combined_attack.h"
#include "attack/integrated_arima_attack.h"
#include "attack/optimal_swap.h"
#include "common/error.h"
#include "eval/fleet_detector.h"
#include "eval/profile_detector.h"
#include "eval/time_to_detection.h"
#include "meter/measurement_error.h"
#include "pricing/billing.h"
#include "stats/descriptive.h"
#include "tests/attack_test_helpers.h"

namespace fdeta::core {
namespace {

using testutil::ConsumerFixture;
using testutil::make_fixture;

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    f_ = make_fixture();
    kld_.fit(f_.train());
    reference_.assign(f_.train().end() - kSlotsPerWeek, f_.train().end());
  }

  std::vector<Kw> make_attack(bool over) {
    Rng rng(3);
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = over;
    return attack::integrated_arima_attack_vector(
        f_.model, f_.history, f_.wstats, kSlotsPerWeek, rng, cfg);
  }

  ConsumerFixture f_;
  FleetDetector kld_{"kld", {.kld = {.bins = 10, .significance = 0.10}}};
  std::vector<Kw> reference_;
};

TEST_F(ExtensionsTest, TimeToDetectionBoundedByOneWeek) {
  const auto attack = make_attack(/*over=*/true);
  const auto latency = time_to_detection(kld_, reference_, attack);
  ASSERT_TRUE(latency.has_value());
  EXPECT_GE(*latency, 1u);
  EXPECT_LE(*latency, static_cast<std::size_t>(kSlotsPerWeek));
}

TEST_F(ExtensionsTest, TimeToDetectionEarlierThanFullWeek) {
  // The whole point of the sliding vector: detection strictly before all 336
  // readings for a strong over-report.
  const auto attack = make_attack(/*over=*/true);
  const auto latency = time_to_detection(kld_, reference_, attack);
  ASSERT_TRUE(latency.has_value());
  EXPECT_LT(*latency, static_cast<std::size_t>(kSlotsPerWeek));
}

TEST_F(ExtensionsTest, CleanStreamStaysSilent) {
  const auto clean = f_.clean_week();
  const auto latency = time_to_detection(kld_, reference_, clean);
  // The clean week may trip near the very end (it is a 10% detector), but
  // must not fire within the first day on honest data primed with a trusted
  // reference.
  if (latency.has_value()) {
    EXPECT_GT(*latency, static_cast<std::size_t>(kSlotsPerDay));
  }
}

TEST_F(ExtensionsTest, MonitorCountsAndWindow) {
  SlidingWeekMonitor monitor(kld_, reference_);
  EXPECT_EQ(monitor.readings_seen(), 0u);
  monitor.push(1.0);
  monitor.push(2.0);
  EXPECT_EQ(monitor.readings_seen(), 2u);
  EXPECT_DOUBLE_EQ(monitor.window()[0], 1.0);
  EXPECT_DOUBLE_EQ(monitor.window()[1], 2.0);
  EXPECT_DOUBLE_EQ(monitor.window()[2], reference_[2]);
}

TEST_F(ExtensionsTest, MonitorRejectsBadReference) {
  const std::vector<Kw> short_ref(10, 1.0);
  EXPECT_THROW(SlidingWeekMonitor(kld_, short_ref), InvalidArgument);
}

TEST(ProfileDetectorLong, CleanWeeksPassWithSeasonalCoverage) {
  // The per-slot profile needs the training window to cover the seasonal
  // cycle reasonably (like the paper's 60 weeks); a 12-week window sits on
  // the seasonal trend's edge and over-flags.  Use 40 training weeks.
  const auto dataset = datagen::small_dataset(1, 46, 23);
  const auto& series = dataset.consumer(0);
  const meter::TrainTestSplit split{.train_weeks = 40, .test_weeks = 6};
  ProfileDetector profile;
  profile.fit(split.train(series));
  std::size_t flagged = 0;
  for (std::size_t w = 0; w < split.test_weeks; ++w) {
    if (profile.flag_week(split.test_week(series, w))) ++flagged;
  }
  EXPECT_LE(flagged, 1u);
}

TEST_F(ExtensionsTest, ProfileDetectorCatchesShapeInversion) {
  ProfileDetector profile;
  profile.fit(f_.train());
  std::vector<Kw> inverted(f_.clean_week().begin(), f_.clean_week().end());
  for (std::size_t d = 0; d < 7; ++d) {
    std::reverse(inverted.begin() + d * kSlotsPerDay,
                 inverted.begin() + (d + 1) * kSlotsPerDay);
  }
  // Day/night inversion: many readings land several sigmas from their
  // slot-of-week mean.
  EXPECT_GT(profile.deviant_count(inverted),
            profile.deviant_count(f_.clean_week()));
}

TEST_F(ExtensionsTest, ProfileDetectorRequiresFit) {
  ProfileDetector profile;
  EXPECT_THROW(profile.flag_week(f_.clean_week()), InvalidArgument);
}

TEST_F(ExtensionsTest, CombinedAttackStacksBothGains) {
  const auto tou = pricing::nightsaver();
  attack::CombinedAttackConfig cfg;
  const auto combined = attack::combined_swap_under_report(
      f_.clean_week(), tou, f_.model, f_.history, f_.wstats, cfg);

  // Swap-only profit for comparison.
  const auto swap_only = attack::optimal_swap_attack(
      f_.clean_week(), tou, 0, &f_.model, f_.history, cfg.swap);

  const double combined_profit =
      pricing::attacker_profit(f_.clean_week(), combined.reported, tou);
  const double swap_profit =
      pricing::attacker_profit(f_.clean_week(), swap_only.reported, tou);
  EXPECT_GT(combined_profit, swap_profit);
  EXPECT_GT(combined.shave_kw, 0.0);

  // Net energy is now actually stolen (unlike pure 3B).
  EXPECT_GT(pricing::energy(f_.clean_week()) -
                pricing::energy(combined.reported),
            0.0);
}

TEST_F(ExtensionsTest, CombinedAttackRespectsMeanFloor) {
  const auto tou = pricing::nightsaver();
  attack::CombinedAttackConfig cfg;
  cfg.shave_fraction = 1.0;  // shave all the way down to the training min
  const auto combined = attack::combined_swap_under_report(
      f_.clean_week(), tou, f_.model, f_.history, f_.wstats, cfg);
  EXPECT_GE(stats::mean(combined.reported),
            f_.wstats.mean_lo - 0.05 * f_.wstats.mean_lo - 1e-9);
}

TEST_F(ExtensionsTest, CombinedAttackValidatesConfig) {
  attack::CombinedAttackConfig cfg;
  cfg.shave_fraction = 1.5;
  EXPECT_THROW(
      attack::combined_swap_under_report(f_.clean_week(), pricing::nightsaver(),
                                         f_.model, f_.history, f_.wstats, cfg),
      InvalidArgument);
}

TEST(MeasurementError, ZeroScaleIsIdentity) {
  meter::MeterAccuracyModel model;
  model.scale = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(meter::measure(5.0, model, rng), 5.0);
}

TEST(MeasurementError, ErrorsWithinEnvelopeMostOfTheTime) {
  meter::MeterAccuracyModel model;  // the ref [11] envelope
  Rng rng(2);
  const int n = 200000;
  int within_tight = 0, within_wide = 0;
  for (int i = 0; i < n; ++i) {
    const double measured = meter::measure(10.0, model, rng);
    const double err = std::fabs(measured - 10.0) / 10.0;
    if (err <= 0.005 + 1e-12) ++within_tight;
    if (err <= 0.02 + 1e-12) ++within_wide;
  }
  EXPECT_NEAR(within_tight / static_cast<double>(n), 0.9991, 0.001);
  EXPECT_NEAR(within_wide / static_cast<double>(n), 0.9996, 0.0005);
}

TEST(MeasurementError, NonNegativeReadings) {
  meter::MeterAccuracyModel model;
  model.scale = 30.0;  // gross errors beyond -100%
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(meter::measure(0.1, model, rng), 0.0);
  }
}

TEST(MeasurementError, DatasetCopyIsDeterministicPerSeed) {
  const auto truth = datagen::small_dataset(3, 2, 5);
  meter::MeterAccuracyModel model;
  Rng a(9), b(9);
  const auto m1 = meter::apply_measurement_error(truth, model, a);
  const auto m2 = meter::apply_measurement_error(truth, model, b);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(m1.consumer(c).readings, m2.consumer(c).readings);
  }
  // And it actually perturbs the readings.
  EXPECT_NE(m1.consumer(0).readings, truth.consumer(0).readings);
}

}  // namespace
}  // namespace fdeta::core
