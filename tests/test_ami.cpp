#include "ami/network.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "datagen/generator.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace fdeta::ami {
namespace {

class AmiTest : public ::testing::Test {
 protected:
  meter::Dataset actual_ = datagen::small_dataset(3, 1, 9);
};

TEST_F(AmiTest, HonestTransmissionDeliversEverything) {
  MeterNetwork net(actual_);
  HeadEnd head_end(3, actual_.slot_count());
  net.transmit(head_end, 0, actual_.slot_count());

  EXPECT_EQ(net.messages_sent(), 3 * actual_.slot_count());
  EXPECT_EQ(net.messages_tampered(), 0u);
  EXPECT_EQ(head_end.missing_count(), 0u);
  for (std::size_t c = 0; c < 3; ++c) {
    for (SlotIndex t = 0; t < actual_.slot_count(); ++t) {
      EXPECT_EQ(head_end.reading(c, t), actual_.consumer(c).readings[t])
          << "c=" << c << " t=" << t;
    }
  }
}

TEST_F(AmiTest, ScaleInterceptorUnderReportsOneConsumer) {
  MeterNetwork net(actual_);
  net.add_interceptor(scale_interceptor(1, 0.5));
  HeadEnd head_end(3, actual_.slot_count());
  net.transmit(head_end, 0, actual_.slot_count());

  // Consumer 1's stream halved, others untouched: exactly the reported vs
  // actual divergence of Attack Classes 2A/2B.
  for (std::size_t t = 0; t < actual_.slot_count(); ++t) {
    EXPECT_NEAR(head_end.reading(1, t), 0.5 * actual_.consumer(1).readings[t],
                1e-12);
    EXPECT_DOUBLE_EQ(head_end.reading(0, t), actual_.consumer(0).readings[t]);
  }
  EXPECT_GT(net.messages_tampered(), 0u);
}

TEST_F(AmiTest, ReplaceInterceptorInjectsAttackVector) {
  std::vector<Kw> attack_vector(kSlotsPerWeek, 7.7);
  MeterNetwork net(actual_);
  net.add_interceptor(replace_interceptor(2, 0, attack_vector));
  HeadEnd head_end(3, actual_.slot_count());
  net.transmit(head_end, 0, actual_.slot_count());

  for (std::size_t t = 0; t < static_cast<std::size_t>(kSlotsPerWeek); ++t) {
    EXPECT_DOUBLE_EQ(head_end.reading(2, t), 7.7);
  }
}

TEST_F(AmiTest, InterceptorsChainInOrder) {
  MeterNetwork net(actual_);
  net.add_interceptor(scale_interceptor(0, 2.0));
  net.add_interceptor(scale_interceptor(0, 3.0));
  HeadEnd head_end(3, actual_.slot_count());
  net.transmit(head_end, 0, actual_.slot_count());
  EXPECT_NEAR(head_end.reading(0, 0), 6.0 * actual_.consumer(0).readings[0],
              1e-12);
}

TEST_F(AmiTest, DroppedMessagesAreMissing) {
  MeterNetwork net(actual_);
  net.add_interceptor(
      [](const ReadingReport& r) -> std::optional<ReadingReport> {
        if (r.consumer_index == 0 && r.slot < 10) return std::nullopt;
        return r;
      });
  HeadEnd head_end(3, actual_.slot_count());
  net.transmit(head_end, 0, actual_.slot_count());

  EXPECT_EQ(net.messages_dropped(), 10u);
  EXPECT_EQ(head_end.missing_count(), 10u);
  EXPECT_FALSE(head_end.has_reading(0, 5));
  EXPECT_THROW(head_end.reading(0, 5), InvalidArgument);
}

TEST_F(AmiTest, PartialRangeTransmission) {
  MeterNetwork net(actual_);
  HeadEnd head_end(3, actual_.slot_count());
  net.transmit(head_end, 0, 100);
  EXPECT_TRUE(head_end.has_reading(0, 99));
  EXPECT_FALSE(head_end.has_reading(0, 100));
}

// A head-end too small for the range must be rejected before anything is
// sent: no report stored, no counter moved, no delivery_summary emitted.
// (It used to throw from receive() mid-transmit, after storing part of a
// slot.)
TEST_F(AmiTest, TransmitRejectsShortHeadEndBeforeSending) {
  const auto actual = datagen::small_dataset(4, 1, 9);
  obs::MetricsRegistry reg;
  obs::EventLog events;
  events.enable();
  MeterNetwork net(actual, &reg, &events);
  HeadEnd narrow(3, actual.slot_count(), &reg);  // one consumer short
  HeadEnd short_horizon(4, 100, &reg);
  const auto before = reg.snapshot();

  EXPECT_THROW(net.transmit(narrow, 0, actual.slot_count()),
               InvalidArgument);
  EXPECT_THROW(net.transmit(short_horizon, 0, 101), InvalidArgument);
  EXPECT_EQ(net.messages_sent(), 0u);
  EXPECT_TRUE(reg.snapshot().same_counts(before));
  EXPECT_EQ(events.size(), 0u);
  EXPECT_EQ(narrow.missing_count(), 3 * actual.slot_count());
  EXPECT_FALSE(narrow.has_reading(0, 0));
  EXPECT_EQ(short_horizon.missing_count(), 4u * 100u);

  // A head-end that covers the range is fine, however long its horizon.
  net.transmit(short_horizon, 0, 100);
  EXPECT_EQ(short_horizon.missing_count(), 0u);
}

TEST_F(AmiTest, HeadEndValidatesIndices) {
  HeadEnd head_end(2, 10);
  EXPECT_THROW(head_end.receive(ReadingReport{5, 0, 1.0}), InvalidArgument);
  EXPECT_THROW(head_end.receive(ReadingReport{0, 10, 1.0}), InvalidArgument);
  EXPECT_THROW(head_end.has_reading(2, 0), InvalidArgument);
  EXPECT_THROW(head_end.has_reading(0, 10), InvalidArgument);

  // A closed slot is gone: reading it throws, while the first held slot
  // and a never-touched one still answer.
  head_end.receive(ReadingReport{0, 4, 1.0});
  head_end.close_before(4);
  EXPECT_EQ(head_end.closed_before(), 4u);
  EXPECT_THROW(head_end.has_reading(0, 3), InvalidArgument);
  EXPECT_THROW(head_end.reading(0, 3), InvalidArgument);
  EXPECT_TRUE(head_end.has_reading(0, 4));
  EXPECT_FALSE(head_end.has_reading(1, 9));
  EXPECT_THROW(head_end.close_before(11), InvalidArgument);
}

}  // namespace
}  // namespace fdeta::ami
