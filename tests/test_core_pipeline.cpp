// Tests of the five-step F-DETA pipeline and the evidence calendar.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "attack/injector.h"
#include "attack/integrated_arima_attack.h"
#include "common/error.h"
#include "datagen/generator.h"
#include "eval/arima_detector.h"
#include "meter/weekly_stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "timeseries/arima.h"

namespace fdeta::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    actual_ = datagen::small_dataset(12, 30, 31);
    config_.split = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 6};
    config_.detector_options.kld = {.bins = 10, .significance = 0.10};
    pipeline_ = std::make_unique<FdetaPipeline>(config_);
    pipeline_->fit(actual_);
  }

  /// Builds a reported dataset with an Integrated-ARIMA injection on
  /// `consumer` at test week 0 (absolute week 24).
  meter::Dataset inject(std::size_t consumer, bool over_report) {
    const auto& series = actual_.consumer(consumer);
    const auto train = config_.split.train(series);
    const auto model = ts::ArimaModel::fit(train, {});
    const auto wstats = meter::weekly_stats(train);
    Rng rng(7);
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = over_report;
    attack::WeekInjection inj;
    inj.consumer_index = consumer;
    inj.week = 24;
    inj.reported_week = attack::integrated_arima_attack_vector(
        model, train.subspan(train.size() - 2 * kSlotsPerWeek), wstats,
        kSlotsPerWeek, rng, cfg);
    return attack::apply_injections(actual_, {inj});
  }

  meter::Dataset actual_;
  PipelineConfig config_;
  std::unique_ptr<FdetaPipeline> pipeline_;
};

TEST_F(PipelineTest, HonestWeekMostlyNormal) {
  const EvidenceCalendar calendar;
  const auto report =
      pipeline_->evaluate_week(actual_, actual_, 24, calendar);
  ASSERT_EQ(report.verdicts.size(), 12u);
  std::size_t anomalous = 0;
  for (const auto& v : report.verdicts) {
    if (v.status != VerdictStatus::kNormal) ++anomalous;
  }
  // At 10% significance, threshold noise plus the dataset's natural
  // anomalies (vacations, parties - Section VIII-A) yield several flags on
  // an honest week; "mostly normal" means no more than half the population.
  EXPECT_LE(anomalous, 5u);
}

TEST_F(PipelineTest, OverReportedConsumersClassifiedAsVictims) {
  // Inject each consumer in turn; the majority must be flagged AND point in
  // the victim direction (some consumers have heterogeneous training sets
  // whose KLD threshold is legitimately too wide - the paper's ~90%).
  std::size_t classified = 0;
  const EvidenceCalendar calendar;
  for (std::size_t c = 0; c < actual_.consumer_count(); ++c) {
    const auto reported = inject(c, /*over_report=*/true);
    const auto report =
        pipeline_->evaluate_week(actual_, reported, 24, calendar);
    const auto victims = report.suspected_victims();
    if (std::find(victims.begin(), victims.end(), actual_.consumer(c).id) !=
        victims.end()) {
      ++classified;
    }
  }
  EXPECT_GE(classified, actual_.consumer_count() / 2);
}

TEST_F(PipelineTest, UnderReportedConsumersClassifiedAsAttackers) {
  std::size_t classified = 0;
  const EvidenceCalendar calendar;
  for (std::size_t c = 0; c < actual_.consumer_count(); ++c) {
    const auto reported = inject(c, /*over_report=*/false);
    const auto report =
        pipeline_->evaluate_week(actual_, reported, 24, calendar);
    const auto attackers = report.suspected_attackers();
    if (std::find(attackers.begin(), attackers.end(),
                  actual_.consumer(c).id) != attackers.end()) {
      ++classified;
    }
  }
  EXPECT_GE(classified, actual_.consumer_count() / 2);
}

TEST_F(PipelineTest, EvidenceCalendarExcusesAnomaly) {
  // Find a consumer whose over-report injection is flagged, then show the
  // calendar downgrades the verdict to "excused".
  EvidenceCalendar holiday;
  holiday.add({.first_week = 24,
               .last_week = 24,
               .kind = EvidenceKind::kHoliday,
               .description = "bank holiday week"});
  const EvidenceCalendar empty;
  bool verified = false;
  for (std::size_t c = 0; c < actual_.consumer_count() && !verified; ++c) {
    const auto reported = inject(c, /*over_report=*/true);
    const auto plain =
        pipeline_->evaluate_week(actual_, reported, 24, empty);
    if (plain.verdicts[c].status != VerdictStatus::kSuspectedVictim) continue;

    const auto excused =
        pipeline_->evaluate_week(actual_, reported, 24, holiday);
    EXPECT_EQ(excused.verdicts[c].status, VerdictStatus::kExcused);
    ASSERT_TRUE(excused.verdicts[c].excuse.has_value());
    EXPECT_EQ(excused.verdicts[c].excuse->kind, EvidenceKind::kHoliday);
    verified = true;
  }
  EXPECT_TRUE(verified) << "no injection was flagged at all";
}

TEST_F(PipelineTest, InvestigationLocalisesAttacker) {
  // Step 5: Case-2 investigation over the topology pinpoints the injected
  // consumer (reported != actual for exactly that leaf).
  const auto reported = inject(4, /*over_report=*/false);
  const auto topology = grid::Topology::single_feeder(12, 0.0);
  const EvidenceCalendar calendar;
  const auto report = pipeline_->evaluate_week(actual_, reported, 24,
                                               calendar, &topology);
  ASSERT_TRUE(report.investigation.has_value());
  const auto& suspects = report.investigation->suspects;
  EXPECT_TRUE(std::find(suspects.begin(), suspects.end(), 4u) !=
              suspects.end());
}

TEST_F(PipelineTest, HonestWeekInvestigationFindsNothing) {
  const auto topology = grid::Topology::single_feeder(12, 0.0);
  const EvidenceCalendar calendar;
  const auto report =
      pipeline_->evaluate_week(actual_, actual_, 24, calendar, &topology);
  ASSERT_TRUE(report.investigation.has_value());
  EXPECT_TRUE(report.investigation->suspects.empty());
}

TEST_F(PipelineTest, RequiresFitBeforeEvaluate) {
  FdetaPipeline unfitted(config_);
  const EvidenceCalendar calendar;
  EXPECT_THROW(unfitted.evaluate_week(actual_, actual_, 24, calendar),
               InvalidArgument);
}

TEST_F(PipelineTest, RejectsMismatchedActualDataset) {
  const EvidenceCalendar calendar;
  // Fewer consumers in `actual` than the pipeline was fitted on: previously
  // an out-of-range access in the step-5 averages; now rejected up front.
  const auto fewer_consumers = datagen::small_dataset(6, 30, 31);
  EXPECT_THROW(pipeline_->evaluate_week(fewer_consumers, actual_, 24, calendar),
               InvalidArgument);
  // Same consumer count but a shorter horizon than the judged week.
  const auto fewer_weeks = datagen::small_dataset(12, 20, 31);
  EXPECT_THROW(pipeline_->evaluate_week(fewer_weeks, actual_, 24, calendar),
               InvalidArgument);
  // Mismatched `reported` stays rejected too.
  EXPECT_THROW(pipeline_->evaluate_week(actual_, fewer_consumers, 24, calendar),
               InvalidArgument);
}

// Consumer i of the data must be the model's consumer i.  A renamed
// consumer shifts every later index of a dataset ordered by id, so each
// consumer would be judged by a neighbour's detector; the pipeline refuses
// before judging anyone, whether it fitted the model or loaded it.
TEST_F(PipelineTest, RejectsDataOfOtherConsumers) {
  obs::MetricsRegistry registry;
  obs::EventLog log;
  PipelineConfig config = config_;
  config.metrics = &registry;
  config.events = &log;
  FdetaPipeline cold(config);
  cold.fit(actual_);
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  cold.save_model(file);
  FdetaPipeline warm(config);
  warm.load_model(file);
  log.enable();

  meter::Dataset renamed = actual_;
  renamed.consumer(4).id = 999;
  std::string names = "consumer 4 is 999, the model's is ";
  names += std::to_string(actual_.consumer(4).id);
  const EvidenceCalendar calendar;
  for (const FdetaPipeline* pipeline : {&cold, &warm}) {
    for (const bool in_reported : {true, false}) {
      SCOPED_TRACE(in_reported ? "reported" : "actual");
      try {
        pipeline->evaluate_week(in_reported ? actual_ : renamed,
                                in_reported ? renamed : actual_, 24,
                                calendar);
        ADD_FAILURE() << "misaligned data was judged";
      } catch (const DataError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(names), std::string::npos) << what;
        EXPECT_NE(what.find(in_reported ? "reported" : "actual"),
                  std::string::npos)
            << what;
      }
    }
  }
  EXPECT_EQ(registry.snapshot().counter("pipeline.verdicts"), 0u);
  EXPECT_EQ(log.size(), 0u);
}

TEST_F(PipelineTest, SerialAndPooledEvaluationAgree) {
  PipelineConfig serial_config = config_;
  serial_config.threads = 1;
  FdetaPipeline serial(serial_config);
  serial.fit(actual_);

  const EvidenceCalendar calendar;
  const auto reported = inject(3, /*over_report=*/false);
  const auto topology = grid::Topology::single_feeder(12, 0.0);
  const auto pooled_report =
      pipeline_->evaluate_week(actual_, reported, 24, calendar, &topology);
  const auto serial_report =
      serial.evaluate_week(actual_, reported, 24, calendar, &topology);

  ASSERT_EQ(pooled_report.verdicts.size(), serial_report.verdicts.size());
  for (std::size_t i = 0; i < pooled_report.verdicts.size(); ++i) {
    EXPECT_EQ(pooled_report.verdicts[i].id, serial_report.verdicts[i].id);
    EXPECT_EQ(pooled_report.verdicts[i].status,
              serial_report.verdicts[i].status);
    EXPECT_DOUBLE_EQ(pooled_report.verdicts[i].kld_score,
                     serial_report.verdicts[i].kld_score);
    EXPECT_DOUBLE_EQ(pooled_report.verdicts[i].kld_threshold,
                     serial_report.verdicts[i].kld_threshold);
  }
  ASSERT_TRUE(pooled_report.investigation.has_value());
  ASSERT_TRUE(serial_report.investigation.has_value());
  EXPECT_EQ(pooled_report.investigation->suspects,
            serial_report.investigation->suspects);
}

TEST(PipelineDirectionFloor, NearZeroTrainingMeansFallBackToAnomaly) {
  // A vacant property: essentially zero consumption through training, then a
  // large flagged week.  `lo = q25 * (1 - margin)` collapses to ~0 for such
  // a consumer, so the old classifier could only ever call it a victim;
  // direction is indeterminate and must read as kSuspectedAnomaly.
  const std::size_t weeks = 30;
  meter::ConsumerSeries vacant;
  vacant.id = 4242;
  vacant.readings.assign(weeks * kSlotsPerWeek, 0.0);
  for (std::size_t t = 24 * kSlotsPerWeek; t < 25 * kSlotsPerWeek; ++t) {
    vacant.readings[t] = 5.0;  // anomalous occupied week
  }
  meter::Dataset population({vacant});

  PipelineConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 6};
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  FdetaPipeline pipeline(config);
  pipeline.fit(population);

  const EvidenceCalendar calendar;
  const auto report =
      pipeline.evaluate_week(population, population, 24, calendar);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_GT(report.verdicts[0].kld_score, report.verdicts[0].kld_threshold);
  EXPECT_EQ(report.verdicts[0].status, VerdictStatus::kSuspectedAnomaly);
}

TEST(EvidenceCalendar, ExcuseSemantics) {
  EvidenceCalendar calendar;
  EXPECT_FALSE(calendar.excuse(5).has_value());
  calendar.add({.first_week = 3,
                .last_week = 5,
                .kind = EvidenceKind::kSevereWeather,
                .description = "storm"});
  EXPECT_TRUE(calendar.excuse(3).has_value());
  EXPECT_TRUE(calendar.excuse(5).has_value());
  EXPECT_FALSE(calendar.excuse(6).has_value());
  EXPECT_FALSE(calendar.excuse(2).has_value());
  EXPECT_EQ(calendar.event_count(), 1u);
}

TEST(EvidenceCalendar, RejectsReversedRange) {
  EvidenceCalendar calendar;
  EXPECT_THROW(
      calendar.add({.first_week = 5, .last_week = 3, .kind = {}, .description = ""}),
               InvalidArgument);
}

TEST(EvidenceCalendar, KindNames) {
  EXPECT_STREQ(to_string(EvidenceKind::kHoliday), "holiday");
  EXPECT_STREQ(to_string(EvidenceKind::kSevereWeather), "severe weather");
  EXPECT_STREQ(to_string(EvidenceKind::kSpecialEvent), "special event");
}

}  // namespace
}  // namespace fdeta::core
