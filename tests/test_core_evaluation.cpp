// End-to-end tests of the Section-VIII evaluation harness on a scaled-down
// population: the qualitative shape of Tables II and III must hold.
#include "eval/evaluation.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "datagen/generator.h"

namespace fdeta::core {
namespace {

class EvaluationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One shared run: 12 consumers, 24/6 split, 10 attack vectors.
    dataset_ = new meter::Dataset(datagen::small_dataset(12, 30, 17));
    EvaluationConfig config;
    config.split = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 6};
    config.attack_vectors = 10;
    config.seed = 5;
    result_ = new EvaluationResult(run_evaluation(*dataset_, config));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete dataset_;
    result_ = nullptr;
    dataset_ = nullptr;
  }

  static meter::Dataset* dataset_;
  static EvaluationResult* result_;
};

meter::Dataset* EvaluationTest::dataset_ = nullptr;
EvaluationResult* EvaluationTest::result_ = nullptr;

TEST_F(EvaluationTest, AllConsumersEvaluated) {
  EXPECT_EQ(result_->consumers.size(), 12u);
  EXPECT_EQ(result_->evaluated_count(), 12u);
}

TEST_F(EvaluationTest, ArimaDetectorBlindToAllThreeAttacks) {
  // Table II row 1: the attacks are designed to ride inside the CI.
  for (std::size_t a = 0; a < kAttackKindCount; ++a) {
    EXPECT_EQ(result_->metric1_percent(DetectorKind::kArima,
                                       static_cast<AttackKind>(a)),
              0.0);
  }
}

TEST_F(EvaluationTest, IntegratedDetectorNearBlindToIntegratedAttack) {
  // Table II row 2: 0.6% (1B) / 10.8% (2A/2B) in the paper - near zero.
  EXPECT_LE(result_->metric1_percent(DetectorKind::kIntegratedArima,
                                     AttackKind::k1B),
            20.0);
  EXPECT_EQ(result_->metric1_percent(DetectorKind::kIntegratedArima,
                                     AttackKind::k3A3B),
            0.0);
}

TEST_F(EvaluationTest, KldDetectorCatchesMostConsumers) {
  // Table II rows 3-4: ~72-90% in the paper.
  for (const auto kind : {DetectorKind::kKld5, DetectorKind::kKld10}) {
    EXPECT_GT(result_->metric1_percent(kind, AttackKind::k1B), 50.0);
    EXPECT_GT(result_->metric1_percent(kind, AttackKind::k2A2B), 50.0);
    EXPECT_GT(result_->metric1_percent(kind, AttackKind::k3A3B), 50.0);
  }
}

TEST_F(EvaluationTest, Metric2OrderingMatchesTableIII) {
  // Stolen energy shrinks as detectors strengthen: ARIMA >> Integrated >
  // KLD, for both 1B and 2A/2B.
  // 1B sums over consumers, so the ordering is strict; 2A/2B is a max over
  // consumers where a single false positive can tie two rows, so it is
  // asserted weakly.
  {
    const double arima =
        result_->metric2_kwh(DetectorKind::kArima, AttackKind::k1B);
    const double integ =
        result_->metric2_kwh(DetectorKind::kIntegratedArima, AttackKind::k1B);
    const double kld5 =
        result_->metric2_kwh(DetectorKind::kKld5, AttackKind::k1B);
    EXPECT_GT(arima, integ);
    EXPECT_GE(integ, kld5);
  }
  {
    const double arima =
        result_->metric2_kwh(DetectorKind::kArima, AttackKind::k2A2B);
    const double integ = result_->metric2_kwh(
        DetectorKind::kIntegratedArima, AttackKind::k2A2B);
    EXPECT_GE(arima, integ);
  }
}

TEST_F(EvaluationTest, SwapAttackStealsNoNetEnergy) {
  for (std::size_t d = 0; d < kDetectorCount; ++d) {
    EXPECT_EQ(result_->metric2_kwh(static_cast<DetectorKind>(d),
                                   AttackKind::k3A3B),
              0.0);
  }
}

TEST_F(EvaluationTest, SwapProfitPositiveButSmall) {
  const double profit =
      result_->metric2_profit(DetectorKind::kArima, AttackKind::k3A3B);
  EXPECT_GT(profit, 0.0);
  // Orders of magnitude below the 1B haul (paper: $14.3 vs $71,707).
  EXPECT_LT(profit * 10.0,
            result_->metric2_profit(DetectorKind::kArima, AttackKind::k1B));
}

TEST_F(EvaluationTest, ProfitsConsistentWithEnergy) {
  // Profit per kWh must lie within the TOU price band where energy is
  // non-trivial.
  for (std::size_t d = 0; d < kDetectorCount; ++d) {
    const auto kind = static_cast<DetectorKind>(d);
    const double kwh = result_->metric2_kwh(kind, AttackKind::k1B);
    const double profit = result_->metric2_profit(kind, AttackKind::k1B);
    if (kwh > 10.0) {
      const double rate = profit / kwh;
      EXPECT_GT(rate, 0.10) << to_string(kind);
      EXPECT_LT(rate, 0.30) << to_string(kind);
    }
  }
}

TEST_F(EvaluationTest, SuccessImpliesNoFalsePositiveAndAllDetected) {
  for (const auto& c : result_->consumers) {
    for (std::size_t d = 0; d < kDetectorCount; ++d) {
      for (std::size_t a = 0; a < kAttackKindCount; ++a) {
        const auto& cell = c.cells[d][a];
        EXPECT_EQ(cell.success, cell.all_detected && !cell.false_positive);
        if (cell.success) {
          // A successful detection of all metric-1 vectors means the
          // integrated attack contributed nothing... the plain ARIMA attack
          // may still slip past weaker rows, so kwh can be positive only for
          // non-KLD rows.
          EXPECT_GE(cell.undetected_kwh, 0.0);
        }
      }
    }
  }
}

TEST_F(EvaluationTest, DeterministicAcrossRuns) {
  EvaluationConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 6};
  config.attack_vectors = 2;
  config.seed = 5;
  const auto small = datagen::small_dataset(3, 30, 17);
  const auto a = run_evaluation(small, config);
  const auto b = run_evaluation(small, config);
  for (std::size_t i = 0; i < a.consumers.size(); ++i) {
    for (std::size_t d = 0; d < kDetectorCount; ++d) {
      for (std::size_t x = 0; x < kAttackKindCount; ++x) {
        EXPECT_DOUBLE_EQ(a.consumers[i].cells[d][x].undetected_profit,
                         b.consumers[i].cells[d][x].undetected_profit);
        EXPECT_EQ(a.consumers[i].cells[d][x].success,
                  b.consumers[i].cells[d][x].success);
      }
    }
  }
}

TEST(EvaluationConfigTest, RejectsShortDataset) {
  const auto tiny = datagen::small_dataset(2, 5, 1);
  EvaluationConfig config;  // default 60/14 split needs 74 weeks
  EXPECT_THROW(run_evaluation(tiny, config), InvalidArgument);
}

TEST(EvaluationNames, ToStringCoverage) {
  EXPECT_STREQ(to_string(DetectorKind::kArima), "ARIMA detector");
  EXPECT_STREQ(to_string(DetectorKind::kKld10),
               "KLD detector (10% significance)");
  EXPECT_STREQ(to_string(AttackKind::k2A2B), "2A/2B");
}

TEST(EvaluateConsumer, SkipsDegenerateSeries) {
  meter::ConsumerSeries flat;
  flat.id = 1;
  flat.readings.assign(30 * kSlotsPerWeek, 0.0);  // all-zero consumer
  EvaluationConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 6};
  const auto result = evaluate_consumer(flat, config);
  EXPECT_TRUE(result.skipped);
}

}  // namespace
}  // namespace fdeta::core
