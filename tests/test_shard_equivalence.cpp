// Sharding moves locks around, never results: for any shard count x thread
// count, the head-end and the online monitor must produce byte-identical
// state - scores, alerts, tallies, emitted events, and checkpoint bytes -
// for the same reading order.  These tests pin that invariant by replaying
// one fixed delivery sequence through every lock layout and comparing
// against the unsharded serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ami/network.h"
#include "common/error.h"
#include "common/sharding.h"
#include "core/detector_registry.h"
#include "core/online_monitor.h"
#include "datagen/generator.h"
#include "grid/hierarchy/feeder_monitor.h"
#include "grid/topology.h"
#include "meter/dataset.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace fdeta {
namespace {

constexpr std::uint64_t kSeed = 7;

meter::TrainTestSplit split() {
  return {.train_weeks = 10, .test_weeks = 2};
}

// One week of slot-major deliveries: consumers 0 and 3 under-report through
// a 0.25 MITM scale (raising alerts), every 17th reading is marked missing
// (exercising the clocks-only-on-observed path), and the rest stream clean.
std::vector<core::Reading> delivery_sequence(const meter::Dataset& data) {
  const SlotIndex base = split().train_weeks * kSlotsPerWeek;
  std::vector<core::Reading> readings;
  readings.reserve(data.consumer_count() * kSlotsPerWeek);
  std::size_t n = 0;
  for (std::size_t s = 0; s < static_cast<std::size_t>(kSlotsPerWeek); ++s) {
    for (std::size_t c = 0; c < data.consumer_count(); ++c, ++n) {
      core::Reading r;
      r.consumer_index = c;
      r.slot = base + s;
      r.kw = data.consumer(c).readings[base + s];
      if (c == 0 || c == 3) r.kw *= 0.25;
      r.missing = (n % 17) == 0;
      readings.push_back(r);
    }
  }
  return readings;
}

std::string checkpoint_bytes(const core::OnlineMonitor& monitor) {
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  monitor.save(out);
  return out.str();
}

void expect_same_alerts(const std::vector<core::AlertEvent>& want,
                        const std::vector<core::AlertEvent>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].consumer_index, got[i].consumer_index) << i;
    EXPECT_EQ(want[i].consumer_id, got[i].consumer_id) << i;
    EXPECT_EQ(want[i].slot, got[i].slot) << i;
    EXPECT_EQ(want[i].score, got[i].score) << i;
    EXPECT_EQ(want[i].threshold, got[i].threshold) << i;
    EXPECT_EQ(want[i].direction, got[i].direction) << i;
  }
}

// The histogram families, whose monitor rescores run on counted windows,
// each at every reading and at the default stride.
struct MonitorRun {
  const char* family;
  std::size_t stride;
};
constexpr MonitorRun kMonitorRuns[] = {{"kld", 1},      {"kld", 4},
                                       {"ckld", 1},     {"ckld", 4},
                                       {"kld-lite", 1}, {"kld-lite", 4}};

// The monitor's deterministic counters: the ingest tallies, every fate and
// the alerts by direction.
constexpr const char* kMonitorCounters[] = {
    "monitor.readings_ingested",       "monitor.readings_missing",
    "monitor.readings_implausible",    "monitor.readings_in_cooldown",
    "monitor.readings_stride_skipped", "monitor.scores_coverage_gated",
    "monitor.scores_evaluated",        "monitor.alerts_raised",
    "monitor.alerts_over_report",      "monitor.alerts_under_report"};

// Every ingested reading ends in exactly one counted fate.
void expect_fates_add_up(const obs::MetricsSnapshot& snap) {
  EXPECT_EQ(snap.counter("monitor.scores_evaluated") +
                snap.counter("monitor.readings_in_cooldown") +
                snap.counter("monitor.scores_coverage_gated") +
                snap.counter("monitor.readings_stride_skipped"),
            snap.counter("monitor.readings_ingested"));
}

class ShardEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = datagen::small_dataset(12, 12, kSeed); }

  std::unique_ptr<core::OnlineMonitor> make_monitor(
      std::size_t shards, std::size_t threads, obs::MetricsRegistry* reg,
      obs::EventLog* events = nullptr, MonitorRun run = {"kld", 1}) {
    core::OnlineMonitorConfig config;
    config.detector = run.family;
    config.detector_options.kld = {.bins = 10, .significance = 0.10};
    config.stride = run.stride;
    config.cooldown_slots = 12;
    config.shards = shards;
    config.threads = threads;
    config.metrics = reg;
    config.events = events;
    auto monitor = std::make_unique<core::OnlineMonitor>(config);
    monitor->fit(data_, split());
    return monitor;
  }

  meter::Dataset data_;
};

// The serial per-reading path at shards=1 is the semantic reference; every
// shard count and batch parallelism must reproduce it byte-for-byte.
TEST_F(ShardEquivalenceTest, MonitorAnyShardCountMatchesSerialReference) {
  // Plus a few readings no meter could report, which every layout must
  // count as implausible and keep out of the windows alike.
  auto readings = delivery_sequence(data_);
  std::size_t implausible = 0;
  for (std::size_t n = 40; n < readings.size(); n += 97) {
    if (readings[n].missing) continue;
    readings[n].kw = n % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                : -2.0e6;
    ++implausible;
  }
  ASSERT_GT(implausible, 0u);

  for (const MonitorRun& run : kMonitorRuns) {
    SCOPED_TRACE(::testing::Message()
                 << run.family << " stride=" << run.stride);
    obs::MetricsRegistry ref_reg;
    auto reference = make_monitor(1, 1, &ref_reg, nullptr, run);
    for (const auto& r : readings) reference->ingest(r);
    ASSERT_FALSE(reference->alerts().empty())
        << "sequence raised no alerts; the equivalence check would be vacuous";
    const std::string ref_bytes = checkpoint_bytes(*reference);
    const auto ref_snap = ref_reg.snapshot();
    expect_fates_add_up(ref_snap);
    EXPECT_EQ(ref_snap.counter("monitor.readings_implausible"), implausible);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                     std::size_t{8}, std::size_t{64}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << "shards=" << shards << " threads=" << threads);
        obs::MetricsRegistry reg;
        auto monitor = make_monitor(shards, threads, &reg, nullptr, run);
        const auto raised = monitor->ingest_batch(readings);
        expect_same_alerts(reference->alerts(), monitor->alerts());
        expect_same_alerts(reference->alerts(), raised);
        EXPECT_EQ(ref_bytes, checkpoint_bytes(*monitor));
        const auto snap = reg.snapshot();
        for (const char* counter : kMonitorCounters) {
          EXPECT_EQ(ref_snap.counter(counter), snap.counter(counter))
              << counter;
        }
        expect_fates_add_up(snap);
      }
    }
  }
}

// PR 5's determinism contract survives sharding: the forensic event log is
// byte-identical for any shard count x thread count (alerts are merged back
// into batch order and emitted serially).
TEST_F(ShardEquivalenceTest, MonitorEventLogBytesInvariantAcrossSharding) {
  const auto readings = delivery_sequence(data_);

  for (const MonitorRun& run : kMonitorRuns) {
    SCOPED_TRACE(::testing::Message()
                 << run.family << " stride=" << run.stride);
    std::string reference;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{5},
                                     std::size_t{64}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(::testing::Message()
                     << "shards=" << shards << " threads=" << threads);
        obs::MetricsRegistry reg;
        obs::EventLog log;
        log.enable();
        auto monitor = make_monitor(shards, threads, &reg, &log, run);
        monitor->ingest_batch(readings);
        const std::string got = log.to_jsonl();
        ASSERT_FALSE(got.empty());
        if (reference.empty()) {
          reference = got;
        } else {
          EXPECT_EQ(reference, got);
        }
      }
    }
  }
}

// The header promises that ingest() and ingest_batch() are safe from
// several feeds at once.  Four feeds own disjoint consumer sets (consumer c
// belongs to feed c % 4): two deliver one slot's readings per ingest_batch
// (fanning out on the shared pool), two deliver reading by reading.  Each
// consumer still sees its readings in sequence order, so its window, its
// alerts and the fate counters must match the serial one-shard replay
// exactly; only how different consumers' alerts interleave in alerts() is
// up to the scheduler.
class MonitorShardTest : public ShardEquivalenceTest {};

TEST_F(MonitorShardTest, ConcurrentFeedsMatchSerialReference) {
  const auto readings = delivery_sequence(data_);
  obs::MetricsRegistry ref_reg;
  auto reference = make_monitor(1, 1, &ref_reg);
  for (const auto& r : readings) reference->ingest(r);
  ASSERT_FALSE(reference->alerts().empty());
  const auto ref_snap = ref_reg.snapshot();
  const auto alerts_of = [](const std::vector<core::AlertEvent>& alerts,
                            std::size_t consumer) {
    std::vector<core::AlertEvent> out;
    for (const auto& a : alerts) {
      if (a.consumer_index == consumer) out.push_back(a);
    }
    return out;
  };

  constexpr std::size_t kFeeds = 4;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{64}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    obs::MetricsRegistry reg;
    auto monitor = make_monitor(shards, 0, &reg);
    std::vector<std::thread> feeds;
    for (std::size_t f = 0; f < kFeeds; ++f) {
      feeds.emplace_back([&, f] {
        std::vector<core::Reading> slice;
        for (const auto& r : readings) {
          if (r.consumer_index % kFeeds == f) slice.push_back(r);
        }
        if (f % 2 == 0) {
          const std::span<const core::Reading> all(slice);
          for (std::size_t i = 0, j = 0; i < all.size(); i = j) {
            while (j < all.size() && all[j].slot == all[i].slot) ++j;
            monitor->ingest_batch(all.subspan(i, j - i));
          }
        } else {
          for (const auto& r : slice) monitor->ingest(r);
        }
      });
    }
    for (auto& feed : feeds) feed.join();

    for (std::size_t c = 0; c < data_.consumer_count(); ++c) {
      SCOPED_TRACE(::testing::Message() << "consumer " << c);
      const auto want = reference->window(c);
      const auto got = monitor->window(c);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()));
      expect_same_alerts(alerts_of(reference->alerts(), c),
                         alerts_of(monitor->alerts(), c));
    }
    const auto snap = reg.snapshot();
    for (const char* counter : kMonitorCounters) {
      EXPECT_EQ(ref_snap.counter(counter), snap.counter(counter)) << counter;
    }
    expect_fates_add_up(snap);
  }
}

// fit_streaming materialises one series at a time but must land on state
// bit-identical to fit() over the same fleet.
TEST_F(ShardEquivalenceTest, FitStreamingMatchesFitBitExactly) {
  obs::MetricsRegistry reg_fit;
  auto fitted = make_monitor(4, 2, &reg_fit);

  datagen::StreamingFleet fleet(datagen::scaled_config(12, 12, kSeed));
  core::OnlineMonitorConfig config;
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  config.stride = 1;
  config.cooldown_slots = 12;
  config.shards = 4;
  config.threads = 2;
  obs::MetricsRegistry reg_stream;
  config.metrics = &reg_stream;
  core::OnlineMonitor streamed(config);
  streamed.fit_streaming(
      data_.consumer_count(),
      [&](std::size_t i) { return fleet.consumer(i); }, split());

  EXPECT_EQ(checkpoint_bytes(*fitted), checkpoint_bytes(streamed));
}

// The feeder-hierarchy layer rides the same invariant: with a configured
// topology, the feeder report (scores, residuals, collusion groups), the
// emitted feeder events, and the v6 checkpoint bytes (which now carry the
// per-node feeder state) must be byte-identical for any shard x thread
// layout after the same delivery tape.
TEST_F(ShardEquivalenceTest, FeederReportInvariantAcrossShardThreadLayouts) {
  Rng rng(kSeed);
  const auto topology =
      grid::Topology::random_radial(data_.consumer_count(), 3, rng, 0.02);
  const auto readings = delivery_sequence(data_);
  const SlotIndex eval_slot =
      (split().train_weeks + 1) * static_cast<std::size_t>(kSlotsPerWeek);

  std::string ref_report, ref_bytes, ref_events;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{64}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      obs::MetricsRegistry reg;
      obs::EventLog log;
      log.enable();
      core::OnlineMonitorConfig config;
      config.detector_options.kld = {.bins = 10, .significance = 0.10};
      config.stride = 1;
      config.cooldown_slots = 12;
      config.shards = shards;
      config.threads = threads;
      config.metrics = &reg;
      config.events = &log;
      config.topology = &topology;
      core::OnlineMonitor monitor(config);
      monitor.fit(data_, split());
      monitor.ingest_batch(readings);
      const auto report = monitor.evaluate_feeders(eval_slot);
      const std::string report_text = hierarchy::to_text(report);
      const std::string bytes = checkpoint_bytes(monitor);
      const std::string events = log.to_jsonl();
      if (ref_report.empty()) {
        ref_report = report_text;
        ref_bytes = bytes;
        ref_events = events;
      } else {
        EXPECT_EQ(ref_report, report_text);
        EXPECT_EQ(ref_bytes, bytes);
        EXPECT_EQ(ref_events, events);
      }
    }
  }
  ASSERT_FALSE(ref_report.empty());
}

// StreamingFleet::consumer(i) is the per-consumer view of the same RNG
// streams generate_dataset draws from.
TEST(StreamingFleet, MatchesBatchGeneration) {
  const auto config = datagen::scaled_config(9, 6, 123);
  const auto batch = datagen::generate_dataset(config);
  const datagen::StreamingFleet fleet(config);
  ASSERT_EQ(batch.consumer_count(), fleet.consumer_count());
  for (std::size_t i = 0; i < fleet.consumer_count(); ++i) {
    const auto series = fleet.consumer(i);
    EXPECT_EQ(batch.consumer(i).id, series.id);
    EXPECT_EQ(batch.consumer(i).type, series.type);
    EXPECT_EQ(batch.consumer(i).readings, series.readings);
  }
}

// ---------------------------------------------------------------------------
// The same lock-layout invariance, swept over every registered detector
// family: sharding and batching must be invisible regardless of which
// detector the monitor runs.  (The suite above pins the default "kld" path in
// more depth - counters, event-log bytes; this sweep pins scores, alerts and
// checkpoint bytes for the whole registry.)

class DetectorShardSweep : public ::testing::TestWithParam<std::string_view> {
 protected:
  void SetUp() override { data_ = datagen::small_dataset(12, 12, kSeed); }

  core::OnlineMonitorConfig monitor_config(std::size_t shards,
                                           std::size_t threads) const {
    core::OnlineMonitorConfig config;
    config.detector = std::string(GetParam());
    config.detector_options.kld = {.bins = 10, .significance = 0.10};
    config.stride = 1;
    config.cooldown_slots = 12;
    config.shards = shards;
    config.threads = threads;
    return config;
  }

  meter::Dataset data_;
};

TEST_P(DetectorShardSweep, BatchedShardedIngestMatchesSerialReference) {
  const auto readings = delivery_sequence(data_);

  core::OnlineMonitor reference(monitor_config(1, 1));
  reference.fit(data_, split());
  for (const auto& r : readings) reference.ingest(r);
  const std::string ref_bytes = checkpoint_bytes(reference);
  // Every family must fire on the 0.25 MITM scale.
  ASSERT_FALSE(reference.alerts().empty())
      << "sequence raised no alerts; alert equivalence would be vacuous";

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{64}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      core::OnlineMonitor monitor(monitor_config(shards, threads));
      monitor.fit(data_, split());
      const auto raised = monitor.ingest_batch(readings);
      expect_same_alerts(reference.alerts(), monitor.alerts());
      expect_same_alerts(reference.alerts(), raised);
      EXPECT_EQ(ref_bytes, checkpoint_bytes(monitor));
    }
  }
}

// Alert scores are calibrated anomaly quantiles: for every family, every
// shard x thread layout must reproduce the serial reference's score and
// threshold BIT-identically (EXPECT_EQ on doubles, no tolerance), and the
// values themselves must sit on the calibrated scale - threshold exactly
// 1 - significance, scores strictly above it in (threshold, 1].  The CI
// shard and calibrate lanes additionally replay this whole binary under
// FDETA_THREADS=1, pinning the same bytes when the shared pool is clamped
// to a single worker.
TEST_P(DetectorShardSweep, CalibratedAlertScoresInvariantAcrossLayouts) {
  const auto readings = delivery_sequence(data_);

  core::OnlineMonitor reference(monitor_config(1, 1));
  reference.fit(data_, split());
  for (const auto& r : readings) reference.ingest(r);
  ASSERT_FALSE(reference.alerts().empty());

  constexpr double kSignificance = 0.10;  // monitor_config's setting
  for (const auto& alert : reference.alerts()) {
    EXPECT_EQ(alert.threshold, 1.0 - kSignificance);
    EXPECT_GT(alert.score, alert.threshold);
    EXPECT_LE(alert.score, 1.0);
  }

  for (const std::size_t shards : {std::size_t{3}, std::size_t{64}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      core::OnlineMonitor monitor(monitor_config(shards, threads));
      monitor.fit(data_, split());
      monitor.ingest_batch(readings);
      const auto& want = reference.alerts();
      const auto& got = monitor.alerts();
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].score, got[i].score) << i;
        EXPECT_EQ(want[i].threshold, got[i].threshold) << i;
      }
    }
  }
}

// fit() and fit_streaming() land on bit-identical state for every family
// (the streamed path materialises one consumer at a time from the same
// deterministic generator streams).
TEST_P(DetectorShardSweep, FitStreamingMatchesFitForEveryFamily) {
  core::OnlineMonitor fitted(monitor_config(4, 2));
  fitted.fit(data_, split());

  datagen::StreamingFleet fleet(datagen::scaled_config(12, 12, kSeed));
  core::OnlineMonitor streamed(monitor_config(4, 2));
  streamed.fit_streaming(
      data_.consumer_count(),
      [&](std::size_t i) { return fleet.consumer(i); }, split());

  EXPECT_EQ(checkpoint_bytes(fitted), checkpoint_bytes(streamed));
}

std::string sweep_name(const ::testing::TestParamInfo<std::string_view>& info) {
  std::string name(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, DetectorShardSweep,
                         ::testing::ValuesIn(core::registered_detector_names()),
                         sweep_name);

// Head-end equivalence: one delivery tape with duplicates, stale replays,
// and quarantine-worthy garbage must land on identical stored state and
// tallies for every shard count, and receive_batch outcomes must match a
// serial receive() replay index-for-index.
class HeadEndShardTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kConsumers = 10;
  static constexpr std::size_t kSlots = 64;

  std::vector<ami::ReadingReport> tape() const {
    std::vector<ami::ReadingReport> reports;
    for (std::size_t t = 0; t < kSlots; ++t) {
      for (std::size_t c = 0; c < kConsumers; ++c) {
        const double kw = 0.5 + static_cast<double>((c * 31 + t * 7) % 13);
        reports.push_back({c, static_cast<SlotIndex>(t), kw, 1});
        if ((c + t) % 5 == 0) {  // duplicate: same sequence again
          reports.push_back({c, static_cast<SlotIndex>(t), kw, 1});
        }
        if ((c + t) % 7 == 0) {  // fresher retransmit, then a stale replay
          reports.push_back({c, static_cast<SlotIndex>(t), kw * 2.0, 2});
          reports.push_back({c, static_cast<SlotIndex>(t), kw, 0});
        }
        if ((c * 3 + t) % 11 == 0) {  // corrupt value -> quarantine
          reports.push_back({c, static_cast<SlotIndex>(t), -4.0, 3});
        }
      }
    }
    return reports;
  }

  struct Collected {
    std::vector<ami::ReceiveOutcome> outcomes;
    std::vector<std::vector<Kw>> readings;
    std::vector<std::vector<char>> masks;
    std::size_t missing = 0, quarantined = 0, duplicates = 0, stale = 0;
  };

  static Collected collect(ami::HeadEnd& head_end,
                           std::vector<ami::ReceiveOutcome> outcomes) {
    Collected out;
    out.outcomes = std::move(outcomes);
    for (std::size_t c = 0; c < kConsumers; ++c) {
      std::vector<Kw> readings(kSlots, 0.0);
      std::vector<char> mask(kSlots, 1);
      for (std::size_t t = 0; t < kSlots; ++t) {
        const auto slot = static_cast<SlotIndex>(t);
        if (!head_end.has_reading(c, slot)) continue;
        readings[t] = head_end.reading(c, slot);
        mask[t] = 0;
      }
      out.readings.push_back(std::move(readings));
      out.masks.push_back(std::move(mask));
    }
    out.missing = head_end.missing_count();
    out.quarantined = head_end.quarantined_count();
    out.duplicates = head_end.duplicates_suppressed();
    out.stale = head_end.stale_rejected();
    return out;
  }
};

TEST_F(HeadEndShardTest, ReceiveBatchMatchesSerialForAnyShardCount) {
  const auto reports = tape();

  obs::MetricsRegistry ref_reg;
  ami::HeadEnd reference(kConsumers, kSlots, &ref_reg, {.shards = 1});
  std::vector<ami::ReceiveOutcome> ref_outcomes;
  ref_outcomes.reserve(reports.size());
  for (const auto& report : reports) {
    ref_outcomes.push_back(reference.receive(report));
  }
  const Collected want = collect(reference, std::move(ref_outcomes));
  ASSERT_GT(want.quarantined, 0u);
  ASSERT_GT(want.duplicates, 0u);
  ASSERT_GT(want.stale, 0u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{64}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    obs::MetricsRegistry reg;
    ami::HeadEnd head_end(kConsumers, kSlots, &reg, {.shards = shards});
    const Collected got = collect(head_end, head_end.receive_batch(reports));
    EXPECT_EQ(want.outcomes, got.outcomes);
    EXPECT_EQ(want.readings, got.readings);
    EXPECT_EQ(want.masks, got.masks);
    EXPECT_EQ(want.missing, got.missing);
    EXPECT_EQ(want.quarantined, got.quarantined);
    EXPECT_EQ(want.duplicates, got.duplicates);
    EXPECT_EQ(want.stale, got.stale);
  }
}

// The header promises that receive() and receive_batch() are safe from
// several feeds at once.  Four threads push interleaved slices of one tape,
// two in batches and two report by report, so the order in which a cell's
// copies land - and how its rejects split into duplicate and stale - is up
// to the scheduler.  Only the order-free facts are asserted: the highest
// valid sequence wins every cell, the missing and quarantined counts are
// exact, and every received report has exactly one outcome.
TEST_F(HeadEndShardTest, ConcurrentFeedsKeepNewestSequence) {
  constexpr double kMissing = -1.0;
  std::vector<ami::ReadingReport> tape;
  std::vector<Kw> want(kConsumers * kSlots, kMissing);
  std::size_t garbage = 0;
  for (std::size_t t = 0; t < kSlots; ++t) {
    for (std::size_t c = 0; c < kConsumers; ++c) {
      const auto slot = static_cast<SlotIndex>(t);
      const std::size_t key = c * kSlots + t;
      if (key % 29 == 0) {  // only corrupt copies arrive: stays missing
        tape.push_back({c, slot, -1.0, 1});
        tape.push_back({c, slot, std::numeric_limits<double>::quiet_NaN(), 2});
        garbage += 2;
        continue;
      }
      // Distinct sequences 0..copies-1 with distinct values; every third
      // copy is sent twice.
      const auto copies = static_cast<std::uint32_t>(1 + key % 4);
      for (std::uint32_t seq = 0; seq < copies; ++seq) {
        const Kw kw = 0.25 + static_cast<double>(key) + 1000.0 * seq;
        tape.push_back({c, slot, kw, seq});
        if ((key + seq) % 3 == 0) tape.push_back({c, slot, kw, seq});
        want[key] = kw;
      }
      if (key % 5 == 0) {  // a corrupt copy with a newer sequence never wins
        tape.push_back({c, slot, 1.0e12, copies});
        ++garbage;
      }
    }
  }
  std::size_t want_missing = 0;
  for (const Kw kw : want) want_missing += kw == kMissing ? 1 : 0;

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{64}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    obs::MetricsRegistry reg;
    ami::HeadEnd head_end(kConsumers, kSlots, &reg, {.shards = shards});
    constexpr std::size_t kFeeds = 4;
    constexpr std::size_t kBatch = 16;
    // outcomes[feed][ReceiveOutcome]: each feed counts its own outcomes,
    // one entry per fate.
    constexpr std::size_t kFates =
        static_cast<std::size_t>(ami::ReceiveOutcome::kTooLate) + 1;
    std::array<std::array<std::size_t, kFates>, kFeeds> outcomes{};
    std::vector<std::thread> feeds;
    for (std::size_t f = 0; f < kFeeds; ++f) {
      feeds.emplace_back([&, f] {
        std::vector<ami::ReadingReport> slice;
        for (std::size_t i = f; i < tape.size(); i += kFeeds) {
          slice.push_back(tape[i]);
        }
        auto& counts = outcomes[f];
        if (f % 2 == 0) {
          const std::span<const ami::ReadingReport> all(slice);
          for (std::size_t i = 0; i < all.size(); i += kBatch) {
            const auto batch =
                all.subspan(i, std::min(kBatch, all.size() - i));
            for (const auto o : head_end.receive_batch(batch)) {
              ++counts[static_cast<std::size_t>(o)];
            }
          }
        } else {
          for (const auto& r : slice) {
            ++counts[static_cast<std::size_t>(head_end.receive(r))];
          }
        }
      });
    }
    for (auto& feed : feeds) feed.join();

    std::array<std::size_t, kFates> total{};
    for (const auto& counts : outcomes) {
      for (std::size_t k = 0; k < total.size(); ++k) total[k] += counts[k];
    }
    const auto count_of = [&](ami::ReceiveOutcome o) {
      return total[static_cast<std::size_t>(o)];
    };
    const std::size_t accepted = count_of(ami::ReceiveOutcome::kAccepted);
    const std::size_t duplicate = count_of(ami::ReceiveOutcome::kDuplicate);
    const std::size_t stale = count_of(ami::ReceiveOutcome::kStale);
    const std::size_t quarantined =
        count_of(ami::ReceiveOutcome::kQuarantined);
    const std::size_t too_late = count_of(ami::ReceiveOutcome::kTooLate);
    EXPECT_EQ(accepted + duplicate + stale + quarantined + too_late,
              tape.size());
    EXPECT_EQ(too_late, 0u);  // nothing closes a slot here
    EXPECT_EQ(quarantined, garbage);
    EXPECT_EQ(head_end.accepted_count(), accepted);
    EXPECT_EQ(head_end.quarantined_count(), garbage);
    EXPECT_EQ(head_end.duplicates_suppressed(), duplicate);
    EXPECT_EQ(head_end.stale_rejected(), stale);
    EXPECT_EQ(head_end.missing_count(), want_missing);
    const auto snapshot = reg.snapshot();
    EXPECT_EQ(snapshot.counter("ami.reports_received"), tape.size());
    // Every accepted report either filled a cell or overwrote an older one.
    EXPECT_EQ(accepted, kConsumers * kSlots - want_missing +
                            snapshot.counter("ami.reports_overwritten"));
    for (std::size_t c = 0; c < kConsumers; ++c) {
      for (std::size_t t = 0; t < kSlots; ++t) {
        const Kw kw = want[c * kSlots + t];
        const auto slot = static_cast<SlotIndex>(t);
        ASSERT_EQ(head_end.has_reading(c, slot), kw != kMissing)
            << "c=" << c << " t=" << t;
        if (kw != kMissing) {
          EXPECT_EQ(head_end.reading(c, slot), kw) << "c=" << c << " t=" << t;
        }
      }
    }
  }
}

TEST_F(HeadEndShardTest, ReceiveBatchValidatesIndexesUpFront) {
  ami::HeadEnd head_end(kConsumers, kSlots, nullptr, {.shards = 4});
  std::vector<ami::ReadingReport> reports = {
      {0, 0, 1.0, 1},
      {kConsumers, 0, 1.0, 1},  // out of range
  };
  EXPECT_THROW(head_end.receive_batch(reports), InvalidArgument);
  // Nothing applied: the valid first report must not have landed.
  EXPECT_FALSE(head_end.has_reading(0, 0));
}

TEST_F(HeadEndShardTest, ShardCountResolvesAndReports) {
  ami::HeadEnd one(kConsumers, kSlots, nullptr, {.shards = 1});
  EXPECT_EQ(one.shard_count(), 1u);
  ami::HeadEnd many(kConsumers, kSlots, nullptr, {.shards = 64});
  // Never more shards than consumers.
  EXPECT_LE(many.shard_count(), kConsumers);
  ami::HeadEnd auto_sized(kConsumers, kSlots, nullptr, {});
  EXPECT_GE(auto_sized.shard_count(), 1u);
  EXPECT_LE(auto_sized.shard_count(), kConsumers);
}

// The consumer -> shard map is contiguous, balanced ranges: shard_of never
// decreases as the consumer index grows, every shard owns floor(n/k) or
// ceil(n/k) consumers, and none is empty.  The layer allocates per shard,
// not per consumer, so a huge fleet costs nothing here; its ranges are
// found by bisection and checked at both ends.
TEST(ShardLayerTest, ShardsAreContiguousBalancedRanges) {
  struct Case {
    std::size_t consumers;
    std::size_t requested;      // 0 = auto
    std::size_t parallel_hint;  // sizes the auto count
  };
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const Case cases[] = {
      {10, 1, 4},                         // k = 1
      {10, 10, 4},                        // k = n
      {1001, 7, 4},                       // n not divisible by k
      {4000, 0, 4},                       // the stream fleet, auto k = 16
      {std::size_t{1} << 40, 0, 4},       // large n, auto k = 16
      {kMax, 0, 16},                      // c * k needs more than 64 bits
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(::testing::Message() << "n=" << tc.consumers
                                      << " requested=" << tc.requested);
    obs::MetricsRegistry reg;
    const ShardLayer layer(tc.requested, tc.consumers, tc.parallel_hint, reg,
                           "test");
    const std::size_t n = tc.consumers;
    const std::size_t k = layer.count();
    if (tc.requested != 0) {
      EXPECT_EQ(k, tc.requested);
    }
    if (n <= 4000) {
      for (std::size_t c = 1; c < n; ++c) {
        ASSERT_LE(layer.shard_of(c - 1), layer.shard_of(c)) << "c=" << c;
      }
    }
    // first[s]: the first consumer whose shard is at least s.
    std::vector<std::size_t> first(k + 1, n);
    for (std::size_t s = 0; s < k; ++s) {
      std::size_t lo = 0;
      std::size_t hi = n;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (layer.shard_of(mid) < s) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      first[s] = lo;
    }
    EXPECT_EQ(first[0], 0u);
    EXPECT_EQ(layer.shard_of(n - 1), k - 1);
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t size = first[s + 1] - first[s];
      ASSERT_GT(size, 0u) << "shard " << s << " is empty";
      EXPECT_GE(size, n / k) << "shard " << s;
      EXPECT_LE(size, n / k + (n % k != 0 ? 1 : 0)) << "shard " << s;
      EXPECT_EQ(layer.shard_of(first[s]), s);
      EXPECT_EQ(layer.shard_of(first[s + 1] - 1), s);
    }
  }
}

// apply_batch hands each callback the positions of one shard only, in
// batch order, whether the batch arrives in consumer order (what transmit
// delivers) or shuffled with several items per consumer.
TEST(ShardLayerTest, ApplyBatchGivesEachShardItsPositionsInBatchOrder) {
  struct Item {
    std::size_t consumer_index;
  };
  constexpr std::size_t kConsumers = 100;
  std::vector<Item> ordered;
  for (std::size_t c = 0; c < kConsumers; ++c) ordered.push_back({c});
  std::vector<Item> shuffled;
  for (int round = 0; round < 3; ++round) {
    shuffled.insert(shuffled.end(), ordered.begin(), ordered.end());
  }
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(kSeed));

  for (const std::vector<Item>* batch : {&ordered, &shuffled}) {
    SCOPED_TRACE(batch == &ordered ? "consumer order" : "shuffled");
    obs::MetricsRegistry reg;
    ShardLayer layer(7, kConsumers, 4, reg, "test");
    std::mutex mutex;
    std::vector<std::vector<std::size_t>> calls;
    layer.apply_batch(
        std::span<const Item>(*batch),
        [&](std::span<const std::size_t> positions) {
          std::lock_guard<std::mutex> lock(mutex);
          calls.emplace_back(positions.begin(), positions.end());
        },
        /*threads=*/0);

    ASSERT_EQ(calls.size(), layer.count());  // every shard owns an item
    std::vector<char> shard_seen(layer.count(), 0);
    std::vector<std::size_t> position_seen(batch->size(), 0);
    for (const auto& call : calls) {
      const std::size_t s =
          layer.shard_of((*batch)[call.front()].consumer_index);
      EXPECT_EQ(shard_seen[s]++, 0) << "shard " << s << " applied twice";
      EXPECT_EQ(std::adjacent_find(call.begin(), call.end(),
                                   std::greater_equal<>()),
                call.end())
          << "shard " << s << " positions out of batch order";
      for (const std::size_t p : call) {
        EXPECT_EQ(layer.shard_of((*batch)[p].consumer_index), s) << p;
        ++position_seen[p];
      }
    }
    for (std::size_t p = 0; p < batch->size(); ++p) {
      EXPECT_EQ(position_seen[p], 1u) << p;
    }
  }
}

}  // namespace
}  // namespace fdeta
