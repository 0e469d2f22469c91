// End-to-end integration: dataset generation -> AMI tampering -> F-DETA
// pipeline -> topology investigation -> billing impact, all in one flow.
#include <gtest/gtest.h>

#include <algorithm>

#include "ami/network.h"
#include "attack/integrated_arima_attack.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "eval/evaluation.h"
#include "grid/topology.h"
#include "meter/weekly_stats.h"
#include "pricing/billing.h"
#include "timeseries/arima.h"

namespace fdeta {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kConsumers = 10;
  static constexpr std::size_t kWeeks = 30;
  static constexpr std::size_t kAttackedWeek = 24;

  void SetUp() override {
    actual_ = datagen::small_dataset(kConsumers, kWeeks, 777);
    split_ = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 6};
  }

  std::vector<Kw> forge(std::size_t consumer, bool over) {
    const auto& series = actual_.consumer(consumer);
    const auto train = split_.train(series);
    const auto model = ts::ArimaModel::fit(train, {});
    const auto wstats = meter::weekly_stats(train);
    Rng rng(55 + consumer);
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = over;
    return attack::integrated_arima_attack_vector(
        model, train.subspan(train.size() - 2 * kSlotsPerWeek), wstats,
        kSlotsPerWeek, rng, cfg);
  }

  meter::Dataset transmit_with_attacks(std::size_t victim,
                                       std::size_t mallory) {
    ami::MeterNetwork network(actual_);
    const SlotIndex start = kAttackedWeek * kSlotsPerWeek;
    network.add_interceptor(
        ami::replace_interceptor(victim, start, forge(victim, true)));
    network.add_interceptor(
        ami::replace_interceptor(mallory, start, forge(mallory, false)));
    ami::HeadEnd head_end(kConsumers, actual_.slot_count());
    network.transmit(head_end, 0, actual_.slot_count());

    std::vector<meter::ConsumerSeries> series;
    for (std::size_t c = 0; c < kConsumers; ++c) {
      meter::ConsumerSeries s = actual_.consumer(c);
      s.readings = head_end.consumer_readings(c);
      series.push_back(std::move(s));
    }
    return meter::Dataset(std::move(series));
  }

  meter::Dataset actual_;
  meter::TrainTestSplit split_;
};

TEST_F(EndToEndTest, TamperedStreamsDifferOnlyInAttackedWeek) {
  const auto reported = transmit_with_attacks(2, 7);
  for (std::size_t c = 0; c < kConsumers; ++c) {
    for (std::size_t w = 0; w < kWeeks; ++w) {
      const auto a = actual_.consumer(c).week(w);
      const auto r = reported.consumer(c).week(w);
      const bool tampered = (c == 2 || c == 7) && w == kAttackedWeek;
      bool equal = true;
      for (std::size_t t = 0; t < a.size(); ++t) {
        if (a[t] != r[t]) equal = false;
      }
      EXPECT_EQ(equal, !tampered) << "consumer " << c << " week " << w;
    }
  }
}

TEST_F(EndToEndTest, PipelineFlagsBothEndsOfTheTheft) {
  const auto reported = transmit_with_attacks(2, 7);
  core::PipelineConfig config;
  config.split = split_;
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  core::FdetaPipeline pipeline(config);
  pipeline.fit(actual_);

  const core::EvidenceCalendar calendar;
  const auto topology = grid::Topology::single_feeder(kConsumers, 0.0);
  const auto report = pipeline.evaluate_week(actual_, reported, kAttackedWeek,
                                             calendar, &topology);

  // The victim's stream must look anomalous-high OR at least be picked up by
  // the investigation; Mallory's anomalous-low likewise.  The investigation
  // (physics) is exact: both tampered meters are in the suspect set.
  ASSERT_TRUE(report.investigation.has_value());
  const auto& suspects = report.investigation->suspects;
  EXPECT_TRUE(std::find(suspects.begin(), suspects.end(), 2u) !=
              suspects.end());
  EXPECT_TRUE(std::find(suspects.begin(), suspects.end(), 7u) !=
              suspects.end());
  // No honest meter outside the feeder... single feeder: suspects include
  // all leaves only if localisation failed; with per-leaf divergence the
  // exhaustive fallback keeps them all, so just require the two are there.
}

TEST_F(EndToEndTest, BillingImpactMatchesInjectedEnergy) {
  const auto reported = transmit_with_attacks(2, 7);
  const auto tou = pricing::nightsaver();
  // The victim (consumer 2) is over-billed, Mallory (7) under-billed.
  const auto victim_actual = actual_.consumer(2).week(kAttackedWeek);
  const auto victim_reported = reported.consumer(2).week(kAttackedWeek);
  EXPECT_GT(pricing::neighbor_loss(victim_actual, victim_reported, tou), 0.0);

  const auto mallory_actual = actual_.consumer(7).week(kAttackedWeek);
  const auto mallory_reported = reported.consumer(7).week(kAttackedWeek);
  EXPECT_GT(
      pricing::attacker_profit(mallory_actual, mallory_reported, tou), 0.0);
}

TEST_F(EndToEndTest, EvaluationHarnessRunsOnTheSameData) {
  core::EvaluationConfig config;
  config.split = split_;
  config.attack_vectors = 3;
  config.seed = 11;
  const auto result = core::run_evaluation(actual_, config);
  EXPECT_EQ(result.evaluated_count(), kConsumers);
  // The KLD rows dominate the ARIMA rows on 1B, as everywhere else.
  EXPECT_GE(result.metric1_percent(core::DetectorKind::kKld10,
                                   core::AttackKind::k1B),
            result.metric1_percent(core::DetectorKind::kArima,
                                   core::AttackKind::k1B));
}

}  // namespace
}  // namespace fdeta
