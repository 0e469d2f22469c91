// Tests of the price-conditioned KLD detector - the paper's answer to the
// Optimal Swap attack (Section VIII-F3).
#include "core/conditioned_kld_detector.h"

#include <gtest/gtest.h>

#include <vector>

#include "attack/optimal_swap.h"
#include "common/error.h"
#include "core/kld_detector.h"
#include "tests/attack_test_helpers.h"

namespace fdeta::core {
namespace {

using testutil::ConsumerFixture;
using testutil::make_fixture;

class ConditionedKldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    f_ = make_fixture();
    tou_ = pricing::nightsaver();
    ConditionedKldDetectorConfig cfg;
    cfg.kld = {.bins = 10, .significance = 0.05};
    cfg.slot_group = tou_slot_groups(tou_);
    detector_ = std::make_unique<ConditionedKldDetector>(cfg);
    detector_->fit(f_.train());

    plain_ = std::make_unique<KldDetector>(
        KldDetectorConfig{.bins = 10, .significance = 0.05});
    plain_->fit(f_.train());
  }

  ConsumerFixture f_;
  pricing::TimeOfUse tou_ = pricing::nightsaver();
  std::unique_ptr<ConditionedKldDetector> detector_;
  std::unique_ptr<KldDetector> plain_;
};

TEST_F(ConditionedKldTest, CleanWeekPasses) {
  EXPECT_FALSE(detector_->flag_week(f_.clean_week()));
}

// The paper's central claim for Section VIII-F3: the swap attack is
// invisible to the unconditioned KLD detector but visible once the
// distribution is conditioned on price period.
TEST_F(ConditionedKldTest, CatchesOptimalSwapThatPlainKldMisses) {
  const auto swap = attack::optimal_swap_attack(
      f_.clean_week(), tou_, 0, /*model=*/nullptr, {});
  ASSERT_FALSE(swap.swaps.empty());

  EXPECT_FALSE(plain_->flag_week(swap.reported))
      << "the swap must not change the unconditioned distribution";
  EXPECT_TRUE(detector_->flag_week(swap.reported))
      << "conditioning on price period must expose the swap";
}

TEST_F(ConditionedKldTest, ScoresPerGroup) {
  const auto scores = detector_->scores(f_.clean_week());
  ASSERT_EQ(scores.size(), 2u);
  ASSERT_EQ(detector_->thresholds().size(), 2u);
  for (double s : scores) EXPECT_GE(s, 0.0);
}

TEST_F(ConditionedKldTest, SwapInflatesBothGroupScores) {
  const auto swap = attack::optimal_swap_attack(
      f_.clean_week(), tou_, 0, /*model=*/nullptr, {});
  const auto clean_scores = detector_->scores(f_.clean_week());
  const auto swap_scores = detector_->scores(swap.reported);
  // Off-peak group gains the big values, peak group loses them: both
  // conditional distributions shift.
  EXPECT_GT(swap_scores[0], clean_scores[0]);
  EXPECT_GT(swap_scores[1], clean_scores[1]);
}

TEST(TouSlotGroups, MatchesNightsaverCalendar) {
  const SlotGroups groups = tou_slot_groups(pricing::nightsaver());
  EXPECT_EQ(groups[0], 0u);    // midnight: off-peak
  EXPECT_EQ(groups[17], 0u);   // 08:30
  EXPECT_EQ(groups[18], 1u);   // 09:00: peak
  EXPECT_EQ(groups[47], 1u);   // 23:30
  EXPECT_EQ(groups[48], 0u);   // next day's midnight
}

TEST(RtpSlotGroups, BandsByQuantile) {
  // Deterministic price stream: 0..95 over 96 slots, 3 bands.
  std::vector<double> prices(96);
  for (std::size_t t = 0; t < 96; ++t) prices[t] = static_cast<double>(t);
  const pricing::RealTimePricing rtp(prices);
  const SlotGroups groups = rtp_slot_groups(rtp, 96, 3);
  EXPECT_EQ(groups[0], 0u);
  EXPECT_EQ(groups[50], 1u);
  EXPECT_EQ(groups[95], 2u);
  EXPECT_EQ(groups[96 + 50], 1u);  // slot-of-week s takes slot s mod 96
}

TEST(ConditionedKld, ConfigValidation) {
  ConditionedKldDetectorConfig cfg;
  cfg.kld.bins = 1;
  EXPECT_THROW(ConditionedKldDetector{cfg}, InvalidArgument);
  cfg.kld.bins = 10;
  cfg.kld.significance = 2.0;
  EXPECT_THROW(ConditionedKldDetector{cfg}, InvalidArgument);
  cfg.kld.significance = 0.05;
  cfg.slot_group.fill(0);  // one group
  EXPECT_THROW(ConditionedKldDetector{cfg}, InvalidArgument);
  cfg.slot_group[0] = 2;  // group 1 owns no slot
  EXPECT_THROW(ConditionedKldDetector{cfg}, InvalidArgument);
  cfg.slot_group[1] = 1;
  EXPECT_EQ(ConditionedKldDetector{cfg}.groups(), 3u);
}

TEST(ConditionedKld, DefaultsToNightsaverGroups) {
  ConditionedKldDetector detector;  // no slot_group provided
  const auto f = make_fixture(21);
  detector.fit(f.train());
  EXPECT_EQ(detector.thresholds().size(), 2u);
}

}  // namespace
}  // namespace fdeta::core
