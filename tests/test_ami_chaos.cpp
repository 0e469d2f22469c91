// Chaos lane (ctest -L chaos): property and invariant tests for the faulty
// AMI reporting plane and the hardened ingest path.
//
// The contracts pinned here:
//  - a FaultPlan's decisions are pure functions of (seed, consumer, slot,
//    attempt), so a fixed-seed run is byte-identical regardless of delivery
//    order, retransmission history, or thread count;
//  - a FaultPlan rejects an out-of-range or NaN rate even on a channel it
//    would leave off;
//  - one seeded all-channel scenario keeps its exact counts and missing
//    cells, so the order in which the plane delivers cannot drift
//    unnoticed;
//  - the head-end's final state is invariant under delivery order and
//    duplication of the same report set (newest-sequence-wins);
//  - a delayed copy of an older transmission can never clobber a fresher
//    reading (the stale-duplicate regression);
//  - transmit + retransmit with an ample retry budget converges EXACTLY to
//    the loss-free dataset, so 10% loss with retries recovers the loss-free
//    verdicts;
//  - a week the coverage gate rejects is reported as insufficient data,
//    never as theft.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ami/faults.h"
#include "ami/network.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/online_monitor.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace fdeta::ami {
namespace {

bool same_outcome(const DeliveryAttempt& a, const DeliveryAttempt& b) {
  const bool kw_equal =
      (std::isnan(a.report.kw) && std::isnan(b.report.kw)) ||
      a.report.kw == b.report.kw;
  return a.dropped == b.dropped && a.corrupted == b.corrupted &&
         a.duplicates == b.duplicates && a.delay_slots == b.delay_slots &&
         kw_equal && a.report.consumer_index == b.report.consumer_index &&
         a.report.slot == b.report.slot;
}

// Every decision must be a pure function of (seed, consumer, slot, attempt):
// re-applying the plan in any order, any number of times, yields the same
// outcome per key.  This is the property the whole lane rests on.
TEST(FaultPlan, DecisionsArePureFunctionsOfTheAttemptKey) {
  FaultPlanConfig config;
  config.drop_rate = 0.2;
  config.duplicate_rate = 0.15;
  config.reorder_rate = 0.2;
  config.corrupt_rate = 0.1;
  config.seed = 77;
  const FaultPlan plan(config);

  std::vector<DeliveryAttempt> forward;
  for (std::size_t c = 0; c < 4; ++c) {
    for (SlotIndex t = 0; t < 100; ++t) {
      for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
        forward.push_back(plan.apply({c, t, 1.0 + c + t}, t, attempt));
      }
    }
  }
  // Replay the same keys backwards against a COPY of the plan: no stream
  // position, no shared state, so every outcome must match its forward twin.
  const FaultPlan copy = plan;
  std::size_t i = forward.size();
  for (std::size_t c = 4; c-- > 0;) {
    for (SlotIndex t = 100; t-- > 0;) {
      for (std::uint32_t attempt = 3; attempt-- > 0;) {
        const auto replay = copy.apply({c, t, 1.0 + c + t}, t, attempt);
        EXPECT_TRUE(same_outcome(forward[--i], replay))
            << "c=" << c << " t=" << t << " attempt=" << attempt;
      }
    }
  }
  // Distinct attempts for one slot re-roll independently: with a 20% drop
  // rate the three attempts cannot all agree everywhere.
  bool attempts_differ = false;
  for (std::size_t k = 0; k + 2 < forward.size(); k += 3) {
    if (forward[k].dropped != forward[k + 1].dropped ||
        forward[k + 1].dropped != forward[k + 2].dropped) {
      attempts_differ = true;
      break;
    }
  }
  EXPECT_TRUE(attempts_differ);
}

TEST(FaultPlan, BurstOutageDropsExactClockWindows) {
  FaultPlanConfig config;
  config.burst_period_slots = 10;
  config.burst_length_slots = 2;
  const FaultPlan plan(config);
  for (SlotIndex now = 0; now < 40; ++now) {
    const auto out = plan.apply({0, now, 1.0}, now, 0);
    EXPECT_EQ(out.dropped, now % 10 < 2) << "now=" << now;
  }
}

TEST(FaultPlan, ParseRoundTripsEveryKey) {
  const auto config = parse_fault_plan(
      "drop=0.1,dup=0.05,reorder=0.2,delay=6,corrupt=0.01,"
      "burst-every=100,burst-len=5,seed=99");
  EXPECT_DOUBLE_EQ(config.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(config.duplicate_rate, 0.05);
  EXPECT_DOUBLE_EQ(config.reorder_rate, 0.2);
  EXPECT_EQ(config.max_delay_slots, 6u);
  EXPECT_DOUBLE_EQ(config.corrupt_rate, 0.01);
  EXPECT_EQ(config.burst_period_slots, 100u);
  EXPECT_EQ(config.burst_length_slots, 5u);
  EXPECT_EQ(config.seed, 99u);
  // An empty spec is the no-op plan.
  EXPECT_DOUBLE_EQ(parse_fault_plan("").drop_rate, 0.0);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_plan("drop=1.5"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("drop=-0.1"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("drop=abc"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("lose=0.1"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("drop"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("burst-every=5,burst-len=6"),
               InvalidArgument);
}

// A bad rate set in code must fail at construction, also when it would
// leave its channel off: a negative or NaN rate used to disable the channel
// silently (only parse_fault_plan caught it, and only for CLI input).
TEST(FaultPlan, RejectsOutOfRangeRatesEvenWhenInactive) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double FaultPlanConfig::*rate :
       {&FaultPlanConfig::drop_rate, &FaultPlanConfig::duplicate_rate,
        &FaultPlanConfig::reorder_rate, &FaultPlanConfig::corrupt_rate}) {
    for (const double bad : {-0.5, nan, 1.5, -inf, inf}) {
      FaultPlanConfig config;
      config.*rate = bad;
      EXPECT_THROW(FaultPlan{config}, InvalidArgument) << "rate=" << bad;
    }
  }
  FaultPlanConfig burst;
  burst.burst_period_slots = 5;
  burst.burst_length_slots = 6;
  EXPECT_THROW(FaultPlan{burst}, InvalidArgument);
  FaultPlanConfig reorder;
  reorder.reorder_rate = 0.1;
  reorder.max_delay_slots = 0;
  EXPECT_THROW(FaultPlan{reorder}, InvalidArgument);

  // The edges stay valid: rates of exactly 0 and 1, a burst as long as its
  // period, and a zero max delay while reorder is off.
  FaultPlanConfig edges;
  edges.drop_rate = 1.0;
  edges.corrupt_rate = 0.0;
  edges.burst_period_slots = 4;
  edges.burst_length_slots = 4;
  edges.max_delay_slots = 0;
  EXPECT_NO_THROW(FaultPlan{edges});
}

// ---------------------------------------------------------------------------
// Head-end ingest invariants.

// The same report set, delivered in any order and with arbitrary duplication,
// must leave the head-end in the same final state: the highest sequence per
// slot wins, everything else is a suppressed duplicate or a stale reject.
TEST(HeadEndChaos, FinalStateInvariantUnderOrderAndDuplication) {
  constexpr std::size_t kConsumers = 3;
  constexpr std::size_t kSlots = 60;
  // Two transmissions per slot with distinguishable payloads; sequence 1
  // must win everywhere, however the mesh interleaves the copies.
  std::vector<ReadingReport> reports;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    for (SlotIndex t = 0; t < kSlots; ++t) {
      for (std::uint32_t seq = 0; seq < 2; ++seq) {
        reports.push_back({c, t, 1000.0 * c + t + 0.5 * seq, seq});
      }
    }
  }

  const auto deliver_all = [](const std::vector<ReadingReport>& batch) {
    obs::MetricsRegistry reg;
    HeadEnd head_end(kConsumers, kSlots, &reg);
    for (const auto& r : batch) head_end.receive(r);
    std::vector<Kw> flat;
    for (std::size_t c = 0; c < kConsumers; ++c) {
      const auto v = head_end.consumer_readings(c);
      flat.insert(flat.end(), v.begin(), v.end());
    }
    return flat;
  };

  const auto expected = [&] {
    std::vector<Kw> flat;
    for (std::size_t c = 0; c < kConsumers; ++c) {
      for (SlotIndex t = 0; t < kSlots; ++t) {
        flat.push_back(1000.0 * c + t + 0.5);  // sequence 1's payload
      }
    }
    return flat;
  }();

  // In order, reversed (newest first, so the rest arrive stale), and a
  // seeded shuffle with every report delivered twice (duplication).
  EXPECT_EQ(deliver_all(reports), expected);

  std::vector<ReadingReport> reversed(reports.rbegin(), reports.rend());
  EXPECT_EQ(deliver_all(reversed), expected);

  std::vector<ReadingReport> doubled = reports;
  doubled.insert(doubled.end(), reports.begin(), reports.end());
  Rng rng(4242);
  for (std::size_t i = doubled.size(); i > 1; --i) {
    std::swap(doubled[i - 1], doubled[rng.below(i)]);
  }
  EXPECT_EQ(deliver_all(doubled), expected);
}

// Regression for the stale-duplicate bug: the pre-sequence head-end applied
// unconditional last-write-wins, so a mesh-delayed copy of the ORIGINAL
// report, arriving after its own (possibly tampered) retransmission, would
// silently roll the slot back.  Newest-sequence-wins must reject it.
TEST(HeadEndChaos, DelayedOriginalCannotClobberRetransmission) {
  obs::MetricsRegistry reg;
  HeadEnd head_end(1, 4, &reg);

  // The retransmission (attempt 1, tampered in flight to 2.5) lands first...
  EXPECT_EQ(head_end.receive({0, 0, 2.5, 1}), ReceiveOutcome::kAccepted);
  // ...then the mesh finally delivers the delayed original (attempt 0).
  EXPECT_EQ(head_end.receive({0, 0, 5.0, 0}), ReceiveOutcome::kStale);
  EXPECT_DOUBLE_EQ(head_end.reading(0, 0), 2.5);
  EXPECT_EQ(head_end.stale_rejected(), 1u);

  // An exact duplicate of the stored report is suppressed, not re-counted
  // as an overwrite.
  EXPECT_EQ(head_end.receive({0, 0, 2.5, 1}), ReceiveOutcome::kDuplicate);
  EXPECT_EQ(head_end.duplicates_suppressed(), 1u);
  EXPECT_DOUBLE_EQ(head_end.reading(0, 0), 2.5);

  // A genuinely fresher transmission still wins.
  EXPECT_EQ(head_end.receive({0, 0, 7.0, 2}), ReceiveOutcome::kAccepted);
  EXPECT_DOUBLE_EQ(head_end.reading(0, 0), 7.0);
}

TEST(HeadEndChaos, QuarantineNeverStoresImpossibleValues) {
  obs::MetricsRegistry reg;
  HeadEnd head_end(1, 4, &reg);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(head_end.receive({0, 0, nan, 0}), ReceiveOutcome::kQuarantined);
  EXPECT_EQ(head_end.receive({0, 0, -3.0, 1}), ReceiveOutcome::kQuarantined);
  EXPECT_EQ(head_end.receive({0, 0, 2.0e6, 2}), ReceiveOutcome::kQuarantined);
  EXPECT_FALSE(head_end.has_reading(0, 0));
  EXPECT_EQ(head_end.quarantined_count(), 3u);

  // The slot stayed missing, so a clean retransmission repairs it.
  EXPECT_EQ(head_end.receive({0, 0, 1.25, 3}), ReceiveOutcome::kAccepted);
  EXPECT_DOUBLE_EQ(head_end.reading(0, 0), 1.25);

  // A corrupt copy of a LATER transmission must not evict the clean value.
  EXPECT_EQ(head_end.receive({0, 0, nan, 4}), ReceiveOutcome::kQuarantined);
  EXPECT_DOUBLE_EQ(head_end.reading(0, 0), 1.25);
}

// ---------------------------------------------------------------------------
// End-to-end: network + fault plan + retransmit.

// With an ample retry budget the NACK loop repairs every channel the plan
// throws at it - drops, duplicates, reorders, corruption - and the head-end
// converges EXACTLY (bitwise) to the loss-free dataset.
TEST(NetworkChaos, RetransmitConvergesExactlyToLossFreeDataset) {
  const auto actual = datagen::small_dataset(3, 2, 17);
  obs::MetricsRegistry reg;
  MeterNetwork network(actual, &reg);
  HeadEnd head_end(actual.consumer_count(), actual.slot_count(), &reg);

  FaultPlanConfig config;
  config.drop_rate = 0.10;
  config.duplicate_rate = 0.05;
  config.reorder_rate = 0.10;
  config.corrupt_rate = 0.02;
  config.seed = 11;
  network.set_fault_plan(FaultPlan(config));
  network.set_retransmit({.max_retries = 8, .backoff_base_slots = 1});
  network.transmit(head_end, 0, actual.slot_count());

  EXPECT_EQ(head_end.missing_count(), 0u);
  for (std::size_t c = 0; c < actual.consumer_count(); ++c) {
    EXPECT_EQ(head_end.consumer_readings(c), actual.consumer(c).readings)
        << "consumer " << c;
  }
  // The channels actually fired - this was not a quiet run.
  EXPECT_GT(network.messages_retried(), 0u);
  EXPECT_GT(network.messages_dropped(), 0u);
  EXPECT_GT(head_end.duplicates_suppressed(), 0u);
  EXPECT_GT(head_end.quarantined_count(), 0u);
}

// Pins the plane's exact outcome for one seeded scenario with every channel
// on (burst, drop, corrupt, duplicate, reorder), an under-reporting
// interceptor and three NACK rounds, over transmit calls of 1 slot, 7 slots
// and the rest.  The tests above check convergence and layout identity; this
// one fixes the order-sensitive counts too (late_accepted, and how rejected
// copies split into stale and duplicate), so any change to the order in
// which the plane delivers reports shows here.
TEST(NetworkChaos, PinnedSeededPlaneOutcome) {
  const auto actual = datagen::small_dataset(24, 3, 37);
  constexpr std::size_t kTapped = 5;
  constexpr double kFactor = 0.75;
  obs::MetricsRegistry reg;
  MeterNetwork network(actual, &reg);
  HeadEnd head_end(actual.consumer_count(), actual.slot_count(), &reg);
  network.add_interceptor(scale_interceptor(kTapped, kFactor));
  FaultPlanConfig fc;
  fc.drop_rate = 0.10;
  fc.duplicate_rate = 0.05;
  fc.reorder_rate = 0.15;
  fc.max_delay_slots = 4;
  fc.corrupt_rate = 0.02;
  fc.burst_period_slots = 97;
  fc.burst_length_slots = 3;
  fc.seed = 2024;
  network.set_fault_plan(FaultPlan(fc));
  network.set_retransmit({.max_retries = 3, .backoff_base_slots = 1});
  const SlotIndex slots = actual.slot_count();
  network.transmit(head_end, 0, 1);
  network.transmit(head_end, 1, 8);
  network.transmit(head_end, 8, slots);

  EXPECT_EQ(network.messages_sent(), 29809u);
  EXPECT_EQ(network.messages_tampered(), 1158u);
  EXPECT_EQ(network.messages_dropped(), 3636u);
  EXPECT_EQ(network.messages_retried(), 4366u);
  EXPECT_EQ(network.late_accepted(), 3477u);
  EXPECT_EQ(head_end.duplicates_suppressed(), 1207u);
  EXPECT_EQ(head_end.stale_rejected(), 203u);
  EXPECT_EQ(head_end.quarantined_count(), 548u);
  EXPECT_EQ(head_end.missing_count(), 8u);
  const auto snapshot = reg.snapshot();
  EXPECT_EQ(snapshot.counter("ami.reports_received"), 26173u);
  EXPECT_EQ(snapshot.counter("ami.reports_overwritten"), 31u);

  using Cell = std::pair<std::size_t, SlotIndex>;
  std::vector<Cell> missing;
  for (std::size_t c = 0; c < actual.consumer_count(); ++c) {
    for (SlotIndex t = 0; t < slots; ++t) {
      if (!head_end.has_reading(c, t)) {
        missing.emplace_back(c, t);
        continue;
      }
      const Kw sent = actual.consumer(c).readings[t];
      EXPECT_EQ(head_end.reading(c, t), c == kTapped ? sent * kFactor : sent)
          << "c=" << c << " t=" << t;
    }
  }
  const std::vector<Cell> expected_missing = {
      {0, 853},  {3, 97},   {12, 873}, {13, 0},
      {15, 439}, {15, 990}, {16, 213}, {18, 219}};
  EXPECT_EQ(missing, expected_missing);
}

// The full seeded scenario - faulty transmit, collection, coverage-gated
// pipeline with event logging - must be byte-identical between a serial run
// and a pooled run.  (CI additionally re-runs this whole lane under
// FDETA_THREADS=1 to pin the shared pool's width out of the equation.)
TEST(NetworkChaos, FixedSeedRunIsByteIdenticalAcrossThreadCounts) {
  const auto actual = datagen::small_dataset(4, 10, 23);
  const std::size_t train_weeks = 8;

  const auto run = [&](std::size_t threads) {
    obs::MetricsRegistry reg;
    obs::EventLog events;
    events.enable();

    MeterNetwork network(actual, &reg, &events);
    HeadEnd head_end(actual.consumer_count(), actual.slot_count(), &reg);
    network.add_interceptor(scale_interceptor(1, 0.3));
    FaultPlanConfig fc;
    fc.drop_rate = 0.35;  // heavy loss, so some weeks gate on coverage
    fc.reorder_rate = 0.10;
    fc.seed = 5;
    network.set_fault_plan(FaultPlan(fc));
    for (std::size_t w = 0; w < 10; ++w) {
      network.transmit(head_end, w * kSlotsPerWeek, (w + 1) * kSlotsPerWeek);
    }
    const auto collected = collect_reported(head_end, actual);

    core::PipelineConfig pc;
    pc.split = meter::TrainTestSplit{.train_weeks = train_weeks,
                                     .test_weeks = 2};
    pc.detector_options.kld = {.bins = 10, .significance = 0.05};
    pc.threads = threads;
    pc.metrics = &reg;
    pc.events = &events;
    core::FdetaPipeline pipeline(pc);
    pipeline.fit(actual);
    const core::EvidenceCalendar calendar;
    std::vector<core::VerdictStatus> statuses;
    for (std::size_t week = train_weeks; week < 10; ++week) {
      core::WeekCoverage coverage{collected.week_missing(week),
                                  static_cast<std::size_t>(kSlotsPerWeek)};
      const auto report = pipeline.evaluate_week(
          actual, collected.dataset, week, calendar, nullptr, &coverage);
      for (const auto& v : report.verdicts) statuses.push_back(v.status);
    }
    struct Result {
      std::string jsonl;
      obs::MetricsSnapshot snapshot;
      std::vector<core::VerdictStatus> statuses;
    };
    return Result{events.to_jsonl(), reg.snapshot(), std::move(statuses)};
  };

  const auto serial = run(1);
  const auto pooled = run(0);
  EXPECT_EQ(serial.statuses, pooled.statuses);
  EXPECT_TRUE(serial.snapshot.same_counts(pooled.snapshot))
      << "serial:\n" << serial.snapshot.to_text()
      << "pooled:\n" << pooled.snapshot.to_text();
  // Byte-identical, not just semantically equal: the event log is the
  // forensic record and must not depend on scheduling.
  EXPECT_EQ(serial.jsonl, pooled.jsonl);
  EXPECT_GT(serial.jsonl.size(), 0u);
}

// ---------------------------------------------------------------------------
// Detection under degradation.

struct WeekOutcome {
  std::vector<core::ConsumerVerdict> verdicts;
};

std::vector<WeekOutcome> judge(const meter::Dataset& actual,
                               const FaultPlanConfig* faults,
                               std::size_t retries) {
  obs::MetricsRegistry reg;
  MeterNetwork network(actual, &reg);
  HeadEnd head_end(actual.consumer_count(), actual.slot_count(), &reg);
  network.add_interceptor(scale_interceptor(1, 0.3));
  if (faults != nullptr) network.set_fault_plan(FaultPlan(*faults));
  network.set_retransmit({.max_retries = retries, .backoff_base_slots = 1});
  const std::size_t weeks = actual.slot_count() / kSlotsPerWeek;
  for (std::size_t w = 0; w < weeks; ++w) {
    network.transmit(head_end, w * kSlotsPerWeek, (w + 1) * kSlotsPerWeek);
  }
  const auto collected = collect_reported(head_end, actual);

  core::PipelineConfig pc;
  pc.split = meter::TrainTestSplit{.train_weeks = 8, .test_weeks = 2};
  pc.detector_options.kld = {.bins = 10, .significance = 0.05};
  pc.metrics = &reg;
  core::FdetaPipeline pipeline(pc);
  pipeline.fit(actual);
  const core::EvidenceCalendar calendar;
  std::vector<WeekOutcome> out;
  for (std::size_t week = 8; week < weeks; ++week) {
    core::WeekCoverage coverage{collected.week_missing(week),
                                static_cast<std::size_t>(kSlotsPerWeek)};
    out.push_back({pipeline
                       .evaluate_week(actual, collected.dataset, week,
                                      calendar, nullptr, &coverage)
                       .verdicts});
  }
  return out;
}

// The acceptance criterion: 10% loss with a retransmit budget yields the
// SAME verdicts and scores as the loss-free plane - because the collected
// dataset converges exactly, not because the detector is merely robust.
TEST(DetectionChaos, RetransmitAtTenPercentLossRecoversLossFreeVerdicts) {
  const auto actual = datagen::small_dataset(4, 10, 29);
  const auto baseline = judge(actual, nullptr, 0);

  FaultPlanConfig fc;
  fc.drop_rate = 0.10;
  fc.seed = 42;
  const auto lossy = judge(actual, &fc, 6);

  ASSERT_EQ(baseline.size(), lossy.size());
  bool attacked_flagged = false;
  for (std::size_t w = 0; w < baseline.size(); ++w) {
    ASSERT_EQ(baseline[w].verdicts.size(), lossy[w].verdicts.size());
    for (std::size_t c = 0; c < baseline[w].verdicts.size(); ++c) {
      const auto& clean = baseline[w].verdicts[c];
      const auto& faulty = lossy[w].verdicts[c];
      EXPECT_EQ(clean.status, faulty.status) << "week " << w << " c " << c;
      EXPECT_DOUBLE_EQ(clean.kld_score, faulty.kld_score)
          << "week " << w << " c " << c;
      if (c == 1 && clean.status != core::VerdictStatus::kNormal &&
          clean.status != core::VerdictStatus::kInsufficientData) {
        attacked_flagged = true;
      }
    }
  }
  // The 0.3x under-report must actually be caught for the recovery claim to
  // mean anything.
  EXPECT_TRUE(attacked_flagged);
}

// Loss must not masquerade as theft: when the mesh eats half the reports and
// nothing retransmits, every week fails the coverage gate and is reported as
// insufficient data - never as an attack verdict.
TEST(DetectionChaos, CoverageGatedWeeksAreNeverReportedAsTheft) {
  const auto actual = datagen::small_dataset(4, 10, 31);
  FaultPlanConfig fc;
  fc.drop_rate = 0.50;
  fc.seed = 13;
  const auto outcomes = judge(actual, &fc, 0);

  std::size_t gated = 0;
  for (const auto& week : outcomes) {
    for (const auto& v : week.verdicts) {
      if (v.status == core::VerdictStatus::kInsufficientData) {
        ++gated;
        EXPECT_GT(v.missing_slots,
                  0.25 * static_cast<double>(kSlotsPerWeek));
      } else {
        // A week that passed the gate may be judged; what must NEVER happen
        // is a gated week surfacing as a theft verdict, so the two sets are
        // disjoint by construction of the enum check above.
        EXPECT_LE(v.missing_slots,
                  0.25 * static_cast<double>(kSlotsPerWeek));
      }
    }
  }
  // At 50% loss essentially everything gates (336 slots, gate at 25%).
  EXPECT_EQ(gated, outcomes.size() * actual.consumer_count());
}

// The monitor's stride and cooldown clocks advance on OBSERVED readings
// only: an AMI outage delivering `missing` markers must not eat a
// consumer's stride budget (scoring early) or its cooldown (re-alerting
// early) while nothing is being measured.  This pins the invariant against
// regression - a counter that ticks on every delivery would pass every
// clean-feed test and fail only under exactly this kind of chaos.
TEST(MonitorChaos, StrideAndCooldownClocksIgnoreOutageReadings) {
  const auto data = datagen::small_dataset(4, 12, 31);
  const meter::TrainTestSplit split{.train_weeks = 10, .test_weeks = 2};
  obs::MetricsRegistry reg;
  core::OnlineMonitorConfig config;
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  config.stride = 4;
  config.cooldown_slots = 8;
  config.metrics = &reg;
  core::OnlineMonitor monitor(config);
  monitor.fit(data, split);

  const SlotIndex base = split.train_weeks * kSlotsPerWeek;
  const std::size_t consumer = 0;
  std::size_t offset = 0;
  auto observed = [&](double scale) {
    const SlotIndex slot = base + offset;
    const Kw kw = data.consumer(consumer).readings[slot] * scale;
    ++offset;
    return core::Reading{consumer, slot, kw, false};
  };
  auto outage = [&] {
    return core::Reading{consumer, base + offset++, 0.0, true};
  };
  // A theft signature that stays INSIDE the training support: pin every
  // reading at the consumer's training mean.  (Scaling readings down pushes
  // them below the support floor, where the out-of-support exclusion drops
  // them from the scored mass instead of piling them into bin 0.)
  const Kw pin = [&] {
    double sum = 0.0;
    for (std::size_t t = 0; t < base; ++t) {
      sum += data.consumer(consumer).readings[t];
    }
    return sum / static_cast<double>(base);
  }();
  auto pinned = [&] {
    return core::Reading{consumer, base + offset++, pin, false};
  };
  auto scores = [&] {
    return reg.snapshot().counter("monitor.scores_evaluated");
  };

  // Stride clock: 3 observed readings, then an outage burst.  If missing
  // readings advanced the clock, the burst would trigger the 4th tick and
  // score a window nobody measured.
  for (int i = 0; i < 3; ++i) monitor.ingest(observed(1.0));
  ASSERT_EQ(scores(), 0u);
  for (int i = 0; i < 10; ++i) monitor.ingest(outage());
  EXPECT_EQ(scores(), 0u) << "outage readings advanced the stride clock";
  monitor.ingest(observed(1.0));
  EXPECT_EQ(scores(), 1u);

  // Raise an alert: keep feeding mean-pinned readings until the sliding
  // week's mass has collapsed into one bin and the score crosses the
  // threshold.
  std::size_t guard = 0;
  while (monitor.alerts().empty() &&
         guard++ < static_cast<std::size_t>(kSlotsPerWeek)) {
    monitor.ingest(pinned());
  }
  ASSERT_EQ(monitor.alerts().size(), 1u);

  // Cooldown clock: interleave outage markers with observed readings.  The
  // 7 observed readings leave one cooldown slot outstanding no matter how
  // many outage markers arrive; nothing may score and no alert may fire.
  const auto scored_at_alert = scores();
  for (int i = 0; i < 7; ++i) {
    monitor.ingest(outage());
    monitor.ingest(outage());
    monitor.ingest(pinned());
  }
  EXPECT_EQ(reg.snapshot().counter("monitor.readings_in_cooldown"), 7u);
  EXPECT_EQ(scores(), scored_at_alert)
      << "outage readings burned through the cooldown";
  EXPECT_EQ(monitor.alerts().size(), 1u);

  // The 8th observed reading retires the cooldown; the stride clock then
  // needs 4 more observed readings (outages still don't count) before the
  // pinned week scores again and re-alerts.
  monitor.ingest(pinned());
  EXPECT_EQ(reg.snapshot().counter("monitor.readings_in_cooldown"), 8u);
  for (int i = 0; i < 3; ++i) monitor.ingest(outage());
  for (int i = 0; i < 3; ++i) monitor.ingest(pinned());
  EXPECT_EQ(scores(), scored_at_alert);
  monitor.ingest(pinned());
  EXPECT_EQ(scores(), scored_at_alert + 1);
  EXPECT_EQ(monitor.alerts().size(), 2u);
}

}  // namespace
}  // namespace fdeta::ami
