#include "eval/report.h"

#include <gtest/gtest.h>

#include "attack/injector.h"
#include "attack/integrated_arima_attack.h"
#include "common/error.h"
#include "datagen/generator.h"
#include "meter/weekly_stats.h"
#include "timeseries/arima.h"

namespace fdeta::core {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    actual_ = datagen::small_dataset(8, 30, 61);
    split_ = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 6};
    PipelineConfig config;
    config.split = split_;
    config.detector_options.kld = {.bins = 10, .significance = 0.10};
    pipeline_ = std::make_unique<FdetaPipeline>(config);
    pipeline_->fit(actual_);

    // Over-report consumer 2 at week 24.
    const auto& series = actual_.consumer(2);
    const auto train = split_.train(series);
    const auto model = ts::ArimaModel::fit(train, {});
    const auto wstats = meter::weekly_stats(train);
    Rng rng(3);
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = true;
    attack::WeekInjection inj;
    inj.consumer_index = 2;
    inj.week = 24;
    inj.reported_week = attack::integrated_arima_attack_vector(
        model, train.subspan(train.size() - 2 * kSlotsPerWeek), wstats,
        kSlotsPerWeek, rng, cfg);
    reported_ = attack::apply_injections(actual_, {inj});
  }

  meter::Dataset actual_;
  meter::Dataset reported_;
  meter::TrainTestSplit split_;
  std::unique_ptr<FdetaPipeline> pipeline_;
};

TEST_F(ReportTest, ContainsHeaderAndSummary) {
  const EvidenceCalendar calendar;
  const auto pr = pipeline_->evaluate_week(actual_, reported_, 24, calendar);
  const auto text = render_report(pr, actual_, reported_, 24,
                                  pricing::nightsaver());
  EXPECT_NE(text.find("week 24"), std::string::npos);
  EXPECT_NE(text.find("meters: 8 total"), std::string::npos);
}

TEST_F(ReportTest, FlagsVictimWithBillingImpact) {
  const EvidenceCalendar calendar;
  const auto pr = pipeline_->evaluate_week(actual_, reported_, 24, calendar);
  const auto text = render_report(pr, actual_, reported_, 24,
                                  pricing::nightsaver());
  // The attacked consumer's id appears with a victim verdict + over-billing.
  const auto id = std::to_string(actual_.consumer(2).id);
  EXPECT_NE(text.find("meter " + id), std::string::npos);
  EXPECT_NE(text.find("over-billed"), std::string::npos);
}

TEST_F(ReportTest, ExcusedAnomalyCarriesEvidence) {
  EvidenceCalendar calendar;
  calendar.add({.first_week = 24,
                .last_week = 24,
                .kind = EvidenceKind::kHoliday,
                .description = "bank holiday"});
  const auto pr = pipeline_->evaluate_week(actual_, reported_, 24, calendar);
  const auto text = render_report(pr, actual_, reported_, 24,
                                  pricing::nightsaver());
  EXPECT_NE(text.find("excused by holiday: bank holiday"), std::string::npos);
}

TEST_F(ReportTest, InvestigationSectionListsSuspects) {
  const EvidenceCalendar calendar;
  const auto topology = grid::Topology::single_feeder(8, 0.0);
  const auto pr = pipeline_->evaluate_week(actual_, reported_, 24, calendar,
                                           &topology);
  const auto text = render_report(pr, actual_, reported_, 24,
                                  pricing::nightsaver());
  EXPECT_NE(text.find("investigation:"), std::string::npos);
  EXPECT_NE(text.find("inspect meters:"), std::string::npos);
}

TEST_F(ReportTest, HonestWeekReportsBalance) {
  const EvidenceCalendar calendar;
  const auto topology = grid::Topology::single_feeder(8, 0.0);
  const auto pr = pipeline_->evaluate_week(actual_, actual_, 25, calendar,
                                           &topology);
  const auto text =
      render_report(pr, actual_, actual_, 25, pricing::nightsaver());
  EXPECT_NE(text.find("books balance"), std::string::npos);
}

TEST_F(ReportTest, ValidatesInputSizes) {
  const EvidenceCalendar calendar;
  const auto pr = pipeline_->evaluate_week(actual_, reported_, 24, calendar);
  const auto small = datagen::small_dataset(2, 30, 1);
  EXPECT_THROW(
      render_report(pr, small, reported_, 24, pricing::nightsaver()),
      InvalidArgument);
}

}  // namespace
}  // namespace fdeta::core
