#include "core/online_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "attack/integrated_arima_attack.h"
#include "common/error.h"
#include "datagen/generator.h"
#include "meter/weekly_stats.h"
#include "timeseries/arima.h"

namespace fdeta::core {
namespace {

class OnlineMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = datagen::small_dataset(4, 30, 91);
    split_ = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 6};
    OnlineMonitorConfig config;
    config.detector_options.kld = {.bins = 10, .significance = 0.10};
    config.stride = 1;  // rescore on every reading for exact tests
    monitor_ = std::make_unique<OnlineMonitor>(config);
    monitor_->fit(history_, split_);
  }

  std::vector<Kw> forged_week(std::size_t consumer) {
    const auto& series = history_.consumer(consumer);
    const auto train = split_.train(series);
    const auto model = ts::ArimaModel::fit(train, {});
    const auto wstats = meter::weekly_stats(train);
    Rng rng(13);
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = true;
    return attack::integrated_arima_attack_vector(
        model, train.subspan(train.size() - 2 * kSlotsPerWeek), wstats,
        kSlotsPerWeek, rng, cfg);
  }

  /// Streams one consumer's week; returns slot offset of the first alert.
  std::optional<std::size_t> stream_week(std::size_t consumer,
                                         std::span<const Kw> week) {
    const SlotIndex base = split_.train_weeks * kSlotsPerWeek;
    for (std::size_t t = 0; t < week.size(); ++t) {
      if (monitor_->ingest(consumer, base + t, week[t])) return t;
    }
    return std::nullopt;
  }

  meter::Dataset history_;
  meter::TrainTestSplit split_;
  std::unique_ptr<OnlineMonitor> monitor_;
};

TEST_F(OnlineMonitorTest, CleanStreamsStayQuiet) {
  for (std::size_t c = 0; c < history_.consumer_count(); ++c) {
    stream_week(c, split_.test_week(history_.consumer(c), 0));
  }
  // At 10% significance an isolated alert is possible but rare with primed
  // trusted windows; certainly not one per consumer.
  EXPECT_LT(monitor_->alerts().size(), history_.consumer_count());
}

TEST_F(OnlineMonitorTest, AttackedStreamAlertsBeforeWeekEnds) {
  const auto attack = forged_week(1);
  const auto offset = stream_week(1, attack);
  ASSERT_TRUE(offset.has_value());
  EXPECT_LT(*offset, static_cast<std::size_t>(kSlotsPerWeek));
  ASSERT_FALSE(monitor_->alerts().empty());
  EXPECT_EQ(monitor_->alerts().front().consumer_id,
            history_.consumer(1).id);
  EXPECT_GT(monitor_->alerts().front().score,
            monitor_->alerts().front().threshold);
}

TEST_F(OnlineMonitorTest, CooldownSuppressesAlertFlood) {
  const auto attack = forged_week(2);
  stream_week(2, attack);
  // One alert per cooldown window at most: a full week (336 slots) with a
  // 48-slot cooldown allows at most 7 alerts.
  std::size_t from_consumer2 = 0;
  for (const auto& a : monitor_->alerts()) {
    if (a.consumer_index == 2) ++from_consumer2;
  }
  EXPECT_GE(from_consumer2, 1u);
  EXPECT_LE(from_consumer2, 7u);
}

TEST_F(OnlineMonitorTest, StrideDelaysButDoesNotMissAlerts) {
  OnlineMonitorConfig config;
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  config.stride = 16;
  OnlineMonitor coarse(config);
  coarse.fit(history_, split_);

  const auto attack = forged_week(1);
  const SlotIndex base = split_.train_weeks * kSlotsPerWeek;
  bool alerted = false;
  for (std::size_t t = 0; t < attack.size() && !alerted; ++t) {
    alerted = coarse.ingest(1, base + t, attack[t]).has_value();
  }
  EXPECT_TRUE(alerted);
}

TEST_F(OnlineMonitorTest, ValidatesUsage) {
  OnlineMonitor unfitted;
  EXPECT_THROW(unfitted.ingest(0, 0, 1.0), InvalidArgument);
  EXPECT_THROW(monitor_->ingest(99, 0, 1.0), InvalidArgument);
  EXPECT_THROW(OnlineMonitor(OnlineMonitorConfig{.stride = 0}),
               InvalidArgument);
  const std::vector<Reading> bad{{.consumer_index = 99, .slot = 0, .kw = 1.0}};
  EXPECT_THROW(monitor_->ingest_batch(bad), InvalidArgument);
  EXPECT_THROW(unfitted.ingest_batch({}), InvalidArgument);
}

TEST_F(OnlineMonitorTest, BatchValidationLeavesStateUntouched) {
  const std::vector<Kw> before(monitor_->window(0).begin(),
                               monitor_->window(0).end());
  const std::vector<Reading> mixed{
      {.consumer_index = 0, .slot = 0, .kw = 123.0},
      {.consumer_index = 99, .slot = 0, .kw = 1.0},  // out of range
  };
  EXPECT_THROW(monitor_->ingest_batch(mixed), InvalidArgument);
  const auto after = monitor_->window(0);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]);  // the valid prefix was not applied
  }
  EXPECT_TRUE(monitor_->alerts().empty());
}

TEST_F(OnlineMonitorTest, WindowStaysSlotAlignedAcrossWraparound) {
  // Stream 1.5 weeks of recognisable readings starting MID-week (slot 100 of
  // the week): every window position must hold the freshest reading for
  // that slot-of-week, with untouched positions keeping the primed training
  // week.  The old ring-buffer cursor wrote reading #k at position k
  // regardless of its slot, so a mid-week start (or any gap) misaligned the
  // window handed to the detector.
  const std::vector<Kw> primed(monitor_->window(3).begin(),
                               monitor_->window(3).end());
  const SlotIndex base =
      split_.train_weeks * kSlotsPerWeek + 100;  // mid-week start
  const std::size_t streamed = kSlotsPerWeek + kSlotsPerWeek / 2;
  auto value_at = [](SlotIndex slot) {
    return 1000.0 + static_cast<double>(slot % 997);
  };
  for (std::size_t t = 0; t < streamed; ++t) {
    monitor_->ingest(3, base + t, value_at(base + t));
  }

  const auto window = monitor_->window(3);
  ASSERT_EQ(window.size(), static_cast<std::size_t>(kSlotsPerWeek));
  for (std::size_t pos = 0; pos < window.size(); ++pos) {
    // The freshest streamed slot landing on `pos`, if any.
    std::optional<SlotIndex> freshest;
    for (std::size_t t = 0; t < streamed; ++t) {
      if ((base + t) % kSlotsPerWeek == pos) freshest = base + t;
    }
    if (freshest) {
      EXPECT_EQ(window[pos], value_at(*freshest)) << "slot position " << pos;
    } else {
      EXPECT_EQ(window[pos], primed[pos]) << "slot position " << pos;
    }
  }
}

TEST_F(OnlineMonitorTest, BatchIngestMatchesPerReadingIngest) {
  OnlineMonitorConfig config;
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  config.stride = 1;
  OnlineMonitor single(config);
  single.fit(history_, split_);
  OnlineMonitor batched(config);
  batched.fit(history_, split_);

  // Interleave all consumers slot by slot (one head-end delivery per slot),
  // with consumer 1 forged; split the stream into uneven batches to exercise
  // state carry-over between batches.
  const auto attack = forged_week(1);
  const SlotIndex base = split_.train_weeks * kSlotsPerWeek;
  std::vector<Reading> stream;
  for (std::size_t t = 0; t < static_cast<std::size_t>(kSlotsPerWeek); ++t) {
    for (std::size_t c = 0; c < history_.consumer_count(); ++c) {
      const Kw kw = (c == 1)
                        ? attack[t]
                        : split_.test_week(history_.consumer(c), 0)[t];
      stream.push_back({.consumer_index = c, .slot = base + t, .kw = kw});
    }
  }

  for (const auto& r : stream) single.ingest(r.consumer_index, r.slot, r.kw);

  std::size_t returned = 0;
  for (std::size_t begin = 0; begin < stream.size();) {
    const std::size_t len = std::min<std::size_t>(
        begin % 2 == 0 ? 701 : 97, stream.size() - begin);
    returned += batched
                    .ingest_batch(std::span<const Reading>(stream).subspan(
                        begin, len))
                    .size();
    begin += len;
  }

  ASSERT_FALSE(single.alerts().empty());  // the forged consumer must fire
  ASSERT_EQ(batched.alerts().size(), single.alerts().size());
  EXPECT_EQ(returned, single.alerts().size());
  for (std::size_t i = 0; i < single.alerts().size(); ++i) {
    const auto& a = single.alerts()[i];
    const auto& b = batched.alerts()[i];
    EXPECT_EQ(a.consumer_index, b.consumer_index);
    EXPECT_EQ(a.consumer_id, b.consumer_id);
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_DOUBLE_EQ(a.score, b.score);
    EXPECT_DOUBLE_EQ(a.threshold, b.threshold);
  }
}

}  // namespace
}  // namespace fdeta::core
