// Event-log tests: field formatting and ordering, sequence numbering, the
// excused-vs-raised alert contract, and a golden JSONL file pinning the
// byte-exact forensic record of a fixed-seed pipeline + monitor run.
//
// Regenerate the golden file after an intentional schema change with:
//   FDETA_REGEN_GOLDEN=1 ./build/tests/test_obs_event_log
#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/evidence.h"
#include "core/online_monitor.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "grid/topology.h"
#include "meter/dataset.h"
#include "obs/metrics.h"

namespace fdeta::obs {
namespace {

TEST(EventFields, InsertionOrderAndFormatting) {
  EventFields fields;
  fields.str("a", "x").u64("n", 7).i64("m", -3).f64("f", 0.5).boolean(
      "b", true);
  fields.raw("arr", "[1,2]");
  EXPECT_EQ(fields.body(),
            ",\"a\":\"x\",\"n\":7,\"m\":-3,\"f\":0.5,\"b\":true,"
            "\"arr\":[1,2]");
}

TEST(EventFields, NonFiniteDoublesBecomeStrings) {
  EventFields fields;
  fields.f64("pos", std::numeric_limits<double>::infinity())
      .f64("neg", -std::numeric_limits<double>::infinity())
      .f64("nan", std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(fields.body(),
            ",\"pos\":\"inf\",\"neg\":\"-inf\",\"nan\":\"nan\"");
}

TEST(EventFields, JsonEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("l1\nl2\tt\r"), "l1\\nl2\\tt\\r");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(EventLog, SequenceNumbersAndSchemaHeader) {
  EventLog log;
  log.enable();
  log.emit("first", EventFields{}.u64("x", 1));
  log.emit("second");
  ASSERT_EQ(log.size(), 2u);
  const auto lines = log.lines();
  std::string schema = "{\"schema\":";
  schema += std::to_string(kEventSchemaVersion);
  EXPECT_EQ(lines[0], schema + ",\"seq\":1,\"event\":\"first\",\"x\":1}");
  EXPECT_EQ(lines[1], schema + ",\"seq\":2,\"event\":\"second\"}");
  EXPECT_EQ(log.to_jsonl(), lines[0] + "\n" + lines[1] + "\n");

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  log.emit("after_clear");
  EXPECT_EQ(log.lines()[0],
            schema + ",\"seq\":1,\"event\":\"after_clear\"}");
}

TEST(EventLog, DisabledIsNoOp) {
  EventLog log;
  log.emit("dropped");
  EXPECT_EQ(log.size(), 0u);
  log.enable();
  log.disable();
  log.emit("also_dropped");
  EXPECT_EQ(log.size(), 0u);
}

// -- Pipeline / monitor integration -----------------------------------------

struct Scenario {
  meter::Dataset actual;
  meter::Dataset reported;
  core::EvidenceCalendar calendar;
};

// Four consumers, 12 train + 4 test weeks.  Consumer index 1 under-reports
// in week 12 (suspected attacker); consumer index 2 over-reports in week 13,
// which the calendar covers (excused).
Scenario make_scenario() {
  Scenario s;
  s.actual = datagen::small_dataset(4, 16, 7);
  s.reported = s.actual;
  const auto slots = static_cast<std::size_t>(kSlotsPerWeek);
  auto& attacker = s.reported.consumer(1).readings;
  for (std::size_t t = 12 * slots; t < 13 * slots; ++t) attacker[t] *= 0.25;
  auto& victim = s.reported.consumer(2).readings;
  for (std::size_t t = 13 * slots; t < 14 * slots; ++t) victim[t] *= 3.0;
  s.calendar.add({.first_week = 13,
                  .last_week = 13,
                  .kind = core::EvidenceKind::kSpecialEvent,
                  .description = "street festival"});
  return s;
}

core::PipelineConfig scenario_config(MetricsRegistry* registry,
                                     EventLog* log) {
  core::PipelineConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 12, .test_weeks = 4};
  config.explain = true;
  config.metrics = registry;
  config.events = log;
  return config;
}

TEST(EventLog, ExcusedWeekEmitsAlertExcusedNotAlertRaised) {
  const Scenario s = make_scenario();
  MetricsRegistry registry;
  EventLog log;
  log.enable();
  core::FdetaPipeline pipeline(scenario_config(&registry, &log));
  pipeline.fit(s.actual);
  pipeline.evaluate_week(s.actual, s.reported, 13, s.calendar);

  // Week 13 is covered by the calendar, so NOTHING may raise; the injected
  // over-report on consumer 1002 must surface as alert_excused carrying the
  // evidence.  (Natural anomalies in other consumers may be excused too.)
  bool saw_excused = false;
  for (const auto& line : log.lines()) {
    EXPECT_EQ(line.find("\"event\":\"alert_raised\""), std::string::npos)
        << line;
    if (line.find("\"event\":\"alert_excused\"") == std::string::npos ||
        line.find("\"consumer\":1002") == std::string::npos) {
      continue;
    }
    saw_excused = true;
    EXPECT_NE(line.find("\"week\":13"), std::string::npos) << line;
    EXPECT_NE(line.find("\"evidence\":\"special event\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"description\":\"street festival\""),
              std::string::npos)
        << line;
  }
  EXPECT_TRUE(saw_excused);
}

TEST(EventLog, AttackWeekEmitsAlertRaisedWithExplanation) {
  const Scenario s = make_scenario();
  MetricsRegistry registry;
  EventLog log;
  log.enable();
  core::FdetaPipeline pipeline(scenario_config(&registry, &log));
  pipeline.fit(s.actual);
  pipeline.evaluate_week(s.actual, s.reported, 12, s.calendar);

  bool saw_raised = false;
  for (const auto& line : log.lines()) {
    if (line.find("\"event\":\"alert_raised\"") == std::string::npos) {
      continue;
    }
    saw_raised = true;
    EXPECT_NE(line.find("\"source\":\"pipeline\""), std::string::npos);
    EXPECT_NE(line.find("\"consumer\":1001"), std::string::npos) << line;
    EXPECT_NE(line.find("\"direction\":\"under-report\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"bin_bits\":[["), std::string::npos) << line;
  }
  EXPECT_TRUE(saw_raised);
}

std::string golden_path() {
  return std::string(FDETA_SOURCE_DIR) + "/tests/golden/event_log.jsonl";
}

// One fixed-seed end-to-end run touching every event kind: model_restored
// (pipeline + monitor), alert_raised (pipeline + monitor), alert_excused,
// and investigation_step.  Byte-compared against the checked-in golden.
TEST(EventLog, GoldenForensicRecord) {
  const Scenario s = make_scenario();
  MetricsRegistry registry;
  EventLog log;
  log.enable();

  core::FdetaPipeline fitted(scenario_config(&registry, &log));
  fitted.fit(s.actual);
  std::stringstream checkpoint;
  fitted.save_model(checkpoint);

  // Serve from a restored model, as a warm-started head-end would.
  core::FdetaPipeline pipeline(scenario_config(&registry, &log));
  pipeline.load_model(checkpoint);

  Rng rng(7);
  const auto topology = grid::Topology::random_radial(4, 2, rng);
  pipeline.evaluate_week(s.actual, s.reported, 12, s.calendar, &topology);
  pipeline.evaluate_week(s.actual, s.reported, 13, s.calendar, &topology);

  // Streaming view of the same weeks through the online monitor.
  core::OnlineMonitorConfig mconfig;
  mconfig.metrics = &registry;
  mconfig.events = &log;
  core::OnlineMonitor monitor(mconfig);
  monitor.fit(s.actual, pipeline.config().split);
  std::vector<core::Reading> batch;
  const auto slots = static_cast<std::size_t>(kSlotsPerWeek);
  for (std::size_t week = 12; week < 14; ++week) {
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const SlotIndex t = static_cast<SlotIndex>(week * slots + slot);
      for (std::size_t c = 0; c < s.reported.consumer_count(); ++c) {
        batch.push_back({.consumer_index = c,
                         .slot = t,
                         .kw = s.reported.consumer(c).readings[t]});
      }
    }
  }
  monitor.ingest_batch(batch);

  std::stringstream saved;
  monitor.save(saved);
  core::OnlineMonitor restored(mconfig);
  restored.restore(saved);

  const std::string got = log.to_jsonl();
  if (std::getenv("FDETA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    out << got;
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with FDETA_REGEN_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace fdeta::obs
