#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/error.h"
#include "meter/dataset.h"
#include "meter/series.h"
#include "meter/weekly_stats.h"

namespace fdeta::meter {
namespace {

ConsumerSeries make_series(ConsumerId id, std::size_t weeks, double base) {
  ConsumerSeries s;
  s.id = id;
  s.readings.resize(weeks * kSlotsPerWeek);
  for (std::size_t t = 0; t < s.readings.size(); ++t) {
    s.readings[t] = base + static_cast<double>(t % kSlotsPerWeek) * 0.001;
  }
  return s;
}

TEST(ConsumerSeries, WeekCountAndViews) {
  const auto s = make_series(1, 3, 1.0);
  EXPECT_EQ(s.week_count(), 3u);
  const auto w1 = s.week(1);
  EXPECT_EQ(w1.size(), static_cast<std::size_t>(kSlotsPerWeek));
  EXPECT_DOUBLE_EQ(w1[0], s.readings[kSlotsPerWeek]);
}

TEST(ConsumerSeries, WeekOutOfRangeThrows) {
  const auto s = make_series(1, 2, 1.0);
  EXPECT_THROW(s.week(2), InvalidArgument);
}

TEST(ConsumerSeries, WeekMatrixLaysOutRows) {
  const auto s = make_series(1, 4, 2.0);
  const auto x = s.week_matrix(1, 2);
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_EQ(x.cols(), static_cast<std::size_t>(kSlotsPerWeek));
  EXPECT_DOUBLE_EQ(x(0, 5), s.readings[kSlotsPerWeek + 5]);
  EXPECT_DOUBLE_EQ(x(1, 0), s.readings[2 * kSlotsPerWeek]);
}

TEST(TrainTestSplit, SplitsSpans) {
  const auto s = make_series(1, 10, 1.0);
  const TrainTestSplit split{.train_weeks = 7, .test_weeks = 3};
  EXPECT_EQ(split.train(s).size(), 7u * kSlotsPerWeek);
  EXPECT_EQ(split.test(s).size(), 3u * kSlotsPerWeek);
  EXPECT_DOUBLE_EQ(split.test(s)[0], s.readings[7 * kSlotsPerWeek]);
  EXPECT_DOUBLE_EQ(split.test_week(s, 1)[0], s.readings[8 * kSlotsPerWeek]);
}

TEST(TrainTestSplit, RejectsShortSeries) {
  const auto s = make_series(1, 5, 1.0);
  const TrainTestSplit split{.train_weeks = 4, .test_weeks = 2};
  EXPECT_THROW(split.train(s), InvalidArgument);
}

TEST(Dataset, ConsistentLengthsEnforced) {
  std::vector<ConsumerSeries> all;
  all.push_back(make_series(1, 2, 1.0));
  all.push_back(make_series(2, 3, 1.0));
  EXPECT_THROW(Dataset{std::move(all)}, InvalidArgument);
}

TEST(Dataset, AggregateDemandSums) {
  std::vector<ConsumerSeries> all;
  all.push_back(make_series(1, 2, 1.0));
  all.push_back(make_series(2, 2, 2.0));
  const Dataset d(std::move(all));
  const auto agg = d.aggregate_demand();
  EXPECT_EQ(agg.size(), 2u * kSlotsPerWeek);
  EXPECT_NEAR(agg[0], 3.0, 1e-12);
}

TEST(Dataset, IndexOfFindsConsumer) {
  std::vector<ConsumerSeries> all;
  all.push_back(make_series(42, 1, 1.0));
  all.push_back(make_series(99, 1, 1.0));
  const Dataset d(std::move(all));
  EXPECT_EQ(d.index_of(99).value(), 1u);
  EXPECT_FALSE(d.index_of(7).has_value());
}

TEST(Dataset, CsvRoundTrip) {
  std::vector<ConsumerSeries> all;
  auto a = make_series(1, 1, 0.5);
  a.type = ConsumerType::kSme;
  all.push_back(std::move(a));
  all.push_back(make_series(2, 1, 1.5));
  const Dataset d(std::move(all));

  std::stringstream buffer;
  d.save_csv(buffer);
  const Dataset loaded = Dataset::load_csv(buffer);

  ASSERT_EQ(loaded.consumer_count(), 2u);
  EXPECT_EQ(loaded.consumer(0).id, 1u);
  EXPECT_EQ(loaded.consumer(0).type, ConsumerType::kSme);
  EXPECT_EQ(loaded.consumer(1).type, ConsumerType::kResidential);
  for (std::size_t t = 0; t < loaded.consumer(0).readings.size(); ++t) {
    EXPECT_NEAR(loaded.consumer(0).readings[t], d.consumer(0).readings[t],
                1e-9);
  }
}

TEST(Dataset, LoadRejectsNonDenseSlots) {
  std::stringstream in("consumer_id,type,slot,kw\n1,0,0,1.0\n1,0,2,1.0\n");
  EXPECT_THROW(Dataset::load_csv(in), DataError);
}

TEST(Dataset, LoadRejectsNonFiniteReadingsNamingTheLine) {
  for (const std::string kw : {"inf", "-inf", "nan"}) {
    std::stringstream in("consumer_id,type,slot,kw\n1,0,0,1.0\n1,0,1," + kw +
                         "\n");
    try {
      Dataset::load_csv(in);
      ADD_FAILURE() << kw << " was accepted";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Dataset, SummarizeCounts) {
  std::vector<ConsumerSeries> all;
  auto a = make_series(1, 1, 1.0);
  a.type = ConsumerType::kResidential;
  auto b = make_series(2, 1, 2.0);
  b.type = ConsumerType::kSme;
  auto c = make_series(3, 1, 3.0);
  c.type = ConsumerType::kUnclassified;
  all.push_back(std::move(a));
  all.push_back(std::move(b));
  all.push_back(std::move(c));
  const auto s = summarize(Dataset(std::move(all)));
  EXPECT_EQ(s.residential, 1u);
  EXPECT_EQ(s.sme, 1u);
  EXPECT_EQ(s.unclassified, 1u);
  EXPECT_GT(s.max_kw, s.mean_kw);
}

TEST(WeeklyStats, BoundsAndPerWeekValues) {
  ConsumerSeries s;
  s.readings.resize(3 * kSlotsPerWeek);
  // Week means 1, 2, 3 with a small in-week wiggle.
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t t = 0; t < static_cast<std::size_t>(kSlotsPerWeek); ++t) {
      s.readings[w * kSlotsPerWeek + t] =
          static_cast<double>(w + 1) + (t % 2 ? 0.1 : -0.1);
    }
  }
  const auto stats = weekly_stats(s.readings);
  ASSERT_EQ(stats.means.size(), 3u);
  EXPECT_NEAR(stats.means[0], 1.0, 1e-9);
  EXPECT_NEAR(stats.mean_lo, 1.0, 1e-9);
  EXPECT_NEAR(stats.mean_hi, 3.0, 1e-9);
  EXPECT_NEAR(stats.var_lo, stats.var_hi, 1e-9);  // same wiggle every week
}

TEST(WeeklyStats, RequiresWholeWeeks) {
  EXPECT_THROW(weekly_stats(std::vector<double>(100, 1.0)), InvalidArgument);
}

TEST(WeeklyStats, RequiresTwoWeeks) {
  EXPECT_THROW(weekly_stats(std::vector<double>(kSlotsPerWeek, 1.0)),
               InvalidArgument);
}

TEST(Units, SlotHelpers) {
  EXPECT_EQ(kSlotsPerWeek, 336);
  EXPECT_DOUBLE_EQ(slot_energy(2.0), 1.0);  // 2 kW for 30 min = 1 kWh
  EXPECT_EQ(day_of_week(0), 0);
  EXPECT_EQ(day_of_week(kSlotsPerDay), 1);
  EXPECT_EQ(slot_of_day(kSlotsPerDay + 3), 3);
  EXPECT_DOUBLE_EQ(hour_of_day(18), 9.0);
}

}  // namespace
}  // namespace fdeta::meter
