// End-to-end determinism of the telemetry layer: under a fixed seed the
// counters are exact facts about the run, so equal work must yield equal
// snapshots no matter how it was scheduled - per-reading ingest vs batched,
// serial vs pooled.  Also pins the accounting identities of the AMI plane
// (sent = received + dropped, missing gauge == missing_count()) and the
// "count, never impute" contract for missing readings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "ami/faults.h"
#include "ami/network.h"
#include "attack/integrated_arima_attack.h"
#include "common/thread_pool.h"
#include "core/online_monitor.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "meter/weekly_stats.h"
#include "obs/metrics.h"
#include "timeseries/arima.h"

namespace fdeta::core {
namespace {

std::vector<Kw> forged_over_week(const meter::Dataset& history,
                                 const meter::TrainTestSplit& split,
                                 std::size_t consumer) {
  const auto train = split.train(history.consumer(consumer));
  const auto model = ts::ArimaModel::fit(train, {});
  const auto wstats = meter::weekly_stats(train);
  Rng rng(13);
  attack::IntegratedAttackConfig cfg;
  cfg.over_report = true;
  return attack::integrated_arima_attack_vector(
      model, train.subspan(train.size() - 2 * kSlotsPerWeek), wstats,
      kSlotsPerWeek, rng, cfg);
}

// One head-end delivery stream covering the first test week of every
// consumer, slot-major (all consumers' slot t, then slot t+1, ...):
//  - consumer 1 reports a forged over-report week (suspected victim),
//  - consumer 2 blatantly under-reports (suspected attacker),
//  - consumer 3 loses every 7th report in transit (missing, not zero).
std::vector<Reading> make_stream(const meter::Dataset& history,
                                 const meter::TrainTestSplit& split) {
  const SlotIndex base = split.train_weeks * kSlotsPerWeek;
  const auto forged = forged_over_week(history, split, 1);
  std::vector<Reading> stream;
  stream.reserve(history.consumer_count() * kSlotsPerWeek);
  for (std::size_t t = 0; t < kSlotsPerWeek; ++t) {
    for (std::size_t c = 0; c < history.consumer_count(); ++c) {
      Reading r;
      r.consumer_index = c;
      r.slot = base + t;
      r.kw = history.consumer(c).readings[base + t];
      if (c == 1) r.kw = forged[t];
      if (c == 2) r.kw *= 0.3;
      if (c == 3 && t % 7 == 0) r.missing = true;
      stream.push_back(r);
    }
  }
  return stream;
}

OnlineMonitorConfig monitor_config(obs::MetricsRegistry* reg) {
  OnlineMonitorConfig config;
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  config.stride = 1;
  config.metrics = reg;
  return config;
}

TEST(ObsInstrumentation, IngestAndBatchProduceIdenticalSnapshots) {
  const auto history = datagen::small_dataset(4, 30, 91);
  const meter::TrainTestSplit split{.train_weeks = 24, .test_weeks = 6};
  const auto stream = make_stream(history, split);

  obs::MetricsRegistry reg_one;
  OnlineMonitor one(monitor_config(&reg_one));
  one.fit(history, split);
  for (const Reading& r : stream) one.ingest(r);

  obs::MetricsRegistry reg_batch;
  OnlineMonitor batch(monitor_config(&reg_batch));
  batch.fit(history, split);
  for (std::size_t i = 0; i < stream.size(); i += 97) {  // deliberately uneven
    const std::size_t n = std::min<std::size_t>(97, stream.size() - i);
    batch.ingest_batch(std::span(stream).subspan(i, n));
  }

  // The alert streams must be identical, event by event.
  ASSERT_EQ(one.alerts().size(), batch.alerts().size());
  for (std::size_t i = 0; i < one.alerts().size(); ++i) {
    EXPECT_EQ(one.alerts()[i].consumer_index, batch.alerts()[i].consumer_index);
    EXPECT_EQ(one.alerts()[i].slot, batch.alerts()[i].slot);
    EXPECT_EQ(one.alerts()[i].direction, batch.alerts()[i].direction);
  }

  // ... and so must every counter and gauge (the acceptance criterion).
  const auto snap_one = reg_one.snapshot();
  const auto snap_batch = reg_batch.snapshot();
  EXPECT_TRUE(snap_one.same_counts(snap_batch))
      << "ingest:\n" << snap_one.to_text()
      << "ingest_batch:\n" << snap_batch.to_text();

  // The counters are facts about this exact stream.
  // t % 7 == 0 for t in [0, 336): 48 slots lost per week.
  const std::size_t missing = (kSlotsPerWeek + 6) / 7;
  EXPECT_EQ(snap_one.counter("monitor.readings_missing"), missing);
  EXPECT_EQ(snap_one.counter("monitor.readings_ingested"),
            stream.size() - missing);
  EXPECT_EQ(snap_one.counter("monitor.consumers_fitted"),
            history.consumer_count());
  EXPECT_EQ(snap_one.counter("monitor.alerts_raised"), one.alerts().size());
  EXPECT_EQ(snap_one.counter("monitor.alerts_over_report") +
                snap_one.counter("monitor.alerts_under_report"),
            snap_one.counter("monitor.alerts_raised"));
  // The forged over-report week and the 0.3x under-report both alert, in
  // their respective directions.
  EXPECT_GE(snap_one.counter("monitor.alerts_over_report"), 1u);
  EXPECT_GE(snap_one.counter("monitor.alerts_under_report"), 1u);
  // Every applied reading ends in one counted fate: scored, in cooldown,
  // coverage-gated or skipped by the stride.
  EXPECT_EQ(snap_one.counter("monitor.scores_evaluated") +
                snap_one.counter("monitor.readings_in_cooldown") +
                snap_one.counter("monitor.scores_coverage_gated") +
                snap_one.counter("monitor.readings_stride_skipped"),
            snap_one.counter("monitor.readings_ingested"));
}

TEST(ObsInstrumentation, MissingReadingsAreCountedNotImputed) {
  const auto history = datagen::small_dataset(2, 30, 91);
  const meter::TrainTestSplit split{.train_weeks = 24, .test_weeks = 6};
  obs::MetricsRegistry reg;
  OnlineMonitor monitor(monitor_config(&reg));
  monitor.fit(history, split);

  const SlotIndex base = split.train_weeks * kSlotsPerWeek;
  const Kw primed = monitor.window(0)[base % kSlotsPerWeek];
  EXPECT_GT(primed, 0.0) << "fixture consumer should have nonzero demand";

  Reading lost;
  lost.consumer_index = 0;
  lost.slot = base;
  lost.kw = 0.0;  // what a naive head-end would impute
  lost.missing = true;
  EXPECT_FALSE(monitor.ingest(lost).has_value());

  // The window keeps its primed value - a missing report is not zero demand.
  EXPECT_EQ(monitor.window(0)[base % kSlotsPerWeek], primed);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("monitor.readings_missing"), 1u);
  EXPECT_EQ(snap.counter("monitor.readings_ingested"), 0u);
  EXPECT_EQ(snap.counter("monitor.scores_evaluated"), 0u);
}

TEST(ObsInstrumentation, SerialAndPooledPipelineAgree) {
  const auto actual = datagen::small_dataset(6, 16, 7);
  auto reported = actual;
  // Consumer 1 under-reports week 12, consumer 2 over-reports week 13.
  for (std::size_t t = 0; t < kSlotsPerWeek; ++t) {
    reported.consumer(1).readings[12 * kSlotsPerWeek + t] *= 0.3;
    reported.consumer(2).readings[13 * kSlotsPerWeek + t] *= 1.9;
  }
  const EvidenceCalendar calendar;

  std::vector<obs::MetricsRegistry> regs(2);
  std::vector<PipelineReport> last_reports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    PipelineConfig config;
    config.split = meter::TrainTestSplit{.train_weeks = 12, .test_weeks = 4};
    config.threads = threads;
    config.metrics = &regs[threads == 1 ? 0 : 1];
    FdetaPipeline pipeline(config);
    pipeline.fit(actual);
    for (std::size_t week = 12; week < 16; ++week) {
      last_reports.push_back(
          pipeline.evaluate_week(actual, reported, week, calendar));
    }
  }

  const auto serial = regs[0].snapshot();
  const auto pooled = regs[1].snapshot();
  EXPECT_TRUE(serial.same_counts(pooled))
      << "serial:\n" << serial.to_text() << "pooled:\n" << pooled.to_text();

  // The counters must agree with the reports they describe (tally the serial
  // half of last_reports; the pooled half produced identical verdicts).
  std::size_t by_status[5] = {0, 0, 0, 0, 0};
  std::size_t verdicts = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto& v : last_reports[i].verdicts) {
      ++by_status[static_cast<std::size_t>(v.status)];
      ++verdicts;
    }
  }
  EXPECT_EQ(serial.counter("pipeline.weeks_scored"), 4u);
  EXPECT_EQ(serial.counter("pipeline.verdicts"), verdicts);
  EXPECT_EQ(serial.counter("pipeline.verdict_normal"),
            by_status[static_cast<std::size_t>(VerdictStatus::kNormal)]);
  EXPECT_EQ(
      serial.counter("pipeline.verdict_attacker"),
      by_status[static_cast<std::size_t>(VerdictStatus::kSuspectedAttacker)]);
  EXPECT_EQ(
      serial.counter("pipeline.verdict_victim"),
      by_status[static_cast<std::size_t>(VerdictStatus::kSuspectedVictim)]);
  EXPECT_EQ(
      serial.counter("pipeline.verdict_anomaly"),
      by_status[static_cast<std::size_t>(VerdictStatus::kSuspectedAnomaly)]);
  EXPECT_EQ(serial.counter("pipeline.verdict_excused"),
            by_status[static_cast<std::size_t>(VerdictStatus::kExcused)]);
  EXPECT_EQ(serial.counter("pipeline.consumers_fitted"),
            actual.consumer_count());
  // The injected attacks must actually register as non-normal verdicts.
  EXPECT_GT(serial.counter("pipeline.verdicts") -
                serial.counter("pipeline.verdict_normal"),
            0u);
}

TEST(ObsInstrumentation, AmiPlaneAccountingIdentities) {
  const auto actual = datagen::small_dataset(3, 2, 5);
  const std::size_t slots = actual.slot_count();
  obs::MetricsRegistry reg;
  ami::MeterNetwork network(actual, &reg);
  ami::HeadEnd head_end(actual.consumer_count(), slots, &reg);

  // An insider scales consumer 1 and drops consumer 2's odd-slot reports.
  network.add_interceptor(ami::scale_interceptor(1, 0.5));
  network.add_interceptor(
      [](const ami::ReadingReport& r) -> std::optional<ami::ReadingReport> {
        if (r.consumer_index == 2 && r.slot % 2 == 1) return std::nullopt;
        return r;
      });
  network.transmit(head_end, 0, slots);

  auto snap = reg.snapshot();
  // The registry mirrors the network's own accessors exactly.
  EXPECT_EQ(snap.counter("ami.messages_sent"), network.messages_sent());
  EXPECT_EQ(snap.counter("ami.messages_tampered"),
            network.messages_tampered());
  EXPECT_EQ(snap.counter("ami.messages_dropped"), network.messages_dropped());
  EXPECT_EQ(snap.counter("ami.deliveries"), 1u);
  EXPECT_EQ(network.messages_sent(), actual.consumer_count() * slots);
  EXPECT_EQ(network.messages_dropped(), slots / 2);
  // Conservation: every sent message was either received or dropped.
  EXPECT_EQ(snap.counter("ami.reports_received"),
            snap.counter("ami.messages_sent") -
                snap.counter("ami.messages_dropped"));
  // The missing gauge tracks the head-end's own O(1) count.
  EXPECT_EQ(snap.gauge("ami.reports_missing"),
            static_cast<std::int64_t>(head_end.missing_count()));
  EXPECT_EQ(head_end.missing_count(), slots / 2);

  // The collected mask exposes exactly the dropped slots (no imputed
  // zeros).
  ami::CollectedReport collected(actual);
  ami::collect_reported(head_end, 0, slots, collected);
  const std::vector<char>& mask = collected.missing[2];
  ASSERT_EQ(mask.size(), slots);
  for (std::size_t t = 0; t < slots; ++t) {
    EXPECT_EQ(mask[t] != 0, t % 2 == 1) << "slot " << t;
    EXPECT_EQ(mask[t] == 0, head_end.has_reading(2, t)) << "slot " << t;
  }

  // A second delivery re-reports every slot: the previously-received ones
  // count as overwrites and the missing backlog drains to zero... except the
  // dropped ones, which stay missing.
  network.transmit(head_end, 0, slots);
  snap = reg.snapshot();
  EXPECT_EQ(snap.counter("ami.deliveries"), 2u);
  EXPECT_EQ(snap.counter("ami.reports_overwritten"),
            2 * slots + slots - slots / 2);  // consumers 0,1 fully, 2 evens
  EXPECT_EQ(snap.gauge("ami.reports_missing"),
            static_cast<std::int64_t>(slots / 2));
}

TEST(ObsInstrumentation, ChaosPlaneCountersReportToLocalRegistry) {
  const auto actual = datagen::small_dataset(2, 1, 31);
  obs::MetricsRegistry reg;
  ami::MeterNetwork network(actual, &reg);
  ami::HeadEnd head_end(actual.consumer_count(), actual.slot_count(), &reg);

  ami::FaultPlanConfig fc;
  fc.drop_rate = 0.2;
  fc.duplicate_rate = 0.1;
  fc.reorder_rate = 0.1;
  fc.corrupt_rate = 0.05;
  fc.seed = 7;
  network.set_fault_plan(ami::FaultPlan(fc));
  network.set_retransmit({.max_retries = 3, .backoff_base_slots = 1});
  network.transmit(head_end, 0, actual.slot_count());

  // The registry mirrors the plane's own tallies exactly, in a registry that
  // is NOT the process default - no counter silently bound elsewhere.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("ami.retries"), network.messages_retried());
  EXPECT_EQ(snap.counter("ami.late_accepted"), network.late_accepted());
  EXPECT_EQ(snap.counter("ami.duplicates_suppressed"),
            head_end.duplicates_suppressed());
  EXPECT_EQ(snap.counter("ami.reports_stale_rejected"),
            head_end.stale_rejected());
  EXPECT_EQ(snap.counter("ami.reports_quarantined"),
            head_end.quarantined_count());
  // The plan's channels all fired under this seed, so the mirrored values
  // are non-trivial.
  EXPECT_GT(network.messages_retried(), 0u);
  EXPECT_GT(head_end.duplicates_suppressed(), 0u);
  EXPECT_GT(head_end.quarantined_count(), 0u);
  // Conservation survives chaos: duplicates count as sent frames, delayed
  // frames all land by the final drain, quarantined ones count as received.
  EXPECT_EQ(snap.counter("ami.reports_received"),
            snap.counter("ami.messages_sent") -
                snap.counter("ami.messages_dropped"));
}

TEST(ObsInstrumentation, CoverageGateCountersReportToLocalRegistry) {
  const auto actual = datagen::small_dataset(3, 10, 7);

  // Pipeline gate: consumer 0's week is 200/336 missing, the others are
  // complete - exactly one insufficient-data verdict.
  obs::MetricsRegistry pipe_reg;
  PipelineConfig pc;
  pc.split = meter::TrainTestSplit{.train_weeks = 8, .test_weeks = 2};
  pc.metrics = &pipe_reg;
  FdetaPipeline pipeline(pc);
  pipeline.fit(actual);
  WeekCoverage coverage{{200, 0, 0}};
  const auto report =
      pipeline.evaluate_week(actual, actual, 8, EvidenceCalendar{}, nullptr,
                             &coverage);
  EXPECT_EQ(report.verdicts[0].status, VerdictStatus::kInsufficientData);
  EXPECT_EQ(report.verdicts[0].missing_slots, 200u);
  const auto pipe_snap = pipe_reg.snapshot();
  EXPECT_EQ(pipe_snap.counter("pipeline.verdict_insufficient"), 1u);
  EXPECT_EQ(pipe_snap.counter("pipeline.coverage_missing_slots"), 200u);
  EXPECT_EQ(pipe_snap.counter("pipeline.verdicts"), 3u);

  // Monitor gate: after a mostly-missing day-and-a-half the next real
  // reading is NOT scored (the window would be judged on stale fill).
  obs::MetricsRegistry mon_reg;
  OnlineMonitor monitor(monitor_config(&mon_reg));
  monitor.fit(actual, meter::TrainTestSplit{.train_weeks = 8, .test_weeks = 2});
  const SlotIndex base = 8 * kSlotsPerWeek;
  const std::size_t lost = static_cast<std::size_t>(0.3 * kSlotsPerWeek);
  for (std::size_t i = 0; i < lost; ++i) {
    Reading r;
    r.consumer_index = 0;
    r.slot = base + i;
    r.missing = true;
    monitor.ingest(r);
  }
  Reading present;
  present.consumer_index = 0;
  present.slot = base + lost;
  present.kw = actual.consumer(0).readings[base + lost];
  EXPECT_FALSE(monitor.ingest(present).has_value());
  const auto mon_snap = mon_reg.snapshot();
  EXPECT_EQ(mon_snap.counter("monitor.scores_coverage_gated"), 1u);
  EXPECT_EQ(mon_snap.counter("monitor.readings_missing"), lost);
  EXPECT_EQ(mon_snap.counter("monitor.scores_evaluated"), 0u);
  // The fate identity: every ingested reading is either scored, swallowed
  // by cooldown, gated on coverage, or skipped by the stride.
  EXPECT_EQ(mon_snap.counter("monitor.scores_evaluated") +
                mon_snap.counter("monitor.readings_in_cooldown") +
                mon_snap.counter("monitor.scores_coverage_gated") +
                mon_snap.counter("monitor.readings_stride_skipped"),
            mon_snap.counter("monitor.readings_ingested"));
}

TEST(ObsInstrumentation, ThreadPoolReportsToLocalRegistry) {
  obs::MetricsRegistry reg;
  {
    ThreadPool pool(2, &reg);
    std::atomic<int> ran{0};
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 50);
  }
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("pool.tasks_submitted"), 50u);
  EXPECT_EQ(snap.counter("pool.tasks_completed"), 50u);
  EXPECT_GE(snap.gauge("pool.queue_depth_highwater"), 1);
}

}  // namespace
}  // namespace fdeta::core
