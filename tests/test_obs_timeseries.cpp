// The telemetry time axis (obs/timeseries.h): delta frames, windowed
// rates, the bounded ring, the layout-determinism contract of the exported
// series, the Prometheus text exposition (golden-file pinned), and the
// scoreboard round trip used by `fdeta stats`.
//
// Regenerate the Prometheus golden after an intentional format change with:
//   FDETA_REGEN_GOLDEN=1 ./build/tests/test_obs_timeseries
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "core/online_monitor.h"
#include "datagen/generator.h"

namespace fdeta::obs {
namespace {

TEST(LayoutScoped, ClassifiesPoolAndShardSeries) {
  EXPECT_TRUE(is_layout_scoped_metric("pool.tasks_executed"));
  EXPECT_TRUE(is_layout_scoped_metric("monitor.shard03.pending_depth"));
  EXPECT_TRUE(is_layout_scoped_metric("ami.shard00.lock_wait_seconds"));
  EXPECT_TRUE(is_layout_scoped_metric("monitor.shard_imbalance_milli"));
  EXPECT_FALSE(is_layout_scoped_metric("monitor.readings_ingested"));
  EXPECT_FALSE(is_layout_scoped_metric("monitor.population_drift_milli_bits"));
  EXPECT_FALSE(is_layout_scoped_metric("pipeline.weeks_evaluated"));
}

TEST(TimeSeriesStore, BoundedRingDropsOldest) {
  TimeSeriesStore store(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    SeriesFrame f;
    f.index = i;
    store.push(std::move(f));
  }
  ASSERT_EQ(store.frames().size(), 3u);
  EXPECT_EQ(store.frames().front().index, 2u);
  EXPECT_EQ(store.frames().back().index, 4u);
  EXPECT_EQ(store.dropped(), 2u);
  EXPECT_EQ(store.capacity(), 3u);
  // One JSON object per line, oldest first.
  const std::string jsonl = store.to_jsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
  EXPECT_NE(jsonl.find("\"frame\":2"), std::string::npos);
}

TEST(TimeSeriesStore, RejectsZeroCapacity) {
  EXPECT_THROW(TimeSeriesStore(0), InvalidArgument);
}

TEST(Scraper, DeltasAndRatesBetweenFrames) {
  MetricsRegistry reg;
  Counter& readings = reg.counter("monitor.readings_ingested");
  Counter& alerts = reg.counter("monitor.alerts_raised");
  Counter& evaluated = reg.counter("monitor.scores_evaluated");
  Counter& gated = reg.counter("monitor.scores_coverage_gated");
  reg.gauge("monitor.population_drift_milli_bits").set(37);

  MetricsScraper scraper({.registry = &reg, .interval_slots = 48});
  scraper.start(0);
  readings.add(96);
  alerts.add(4);
  evaluated.add(9);
  gated.add(3);

  EXPECT_FALSE(scraper.due(47));
  EXPECT_EQ(scraper.maybe_scrape(47), nullptr);
  ASSERT_TRUE(scraper.due(48));
  const SeriesFrame* frame = scraper.maybe_scrape(48);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->slot, 48u);
  EXPECT_EQ(frame->slots_delta, 48u);
  EXPECT_EQ(frame->counter_deltas.at("monitor.readings_ingested"), 96u);
  EXPECT_DOUBLE_EQ(frame->readings_per_slot, 2.0);
  // 48 slots = 24 logical hours; 4 alerts -> 1/6 per hour.
  EXPECT_DOUBLE_EQ(frame->alerts_per_hour, 4.0 / 24.0);
  EXPECT_DOUBLE_EQ(frame->coverage_gated_fraction, 3.0 / 12.0);
  EXPECT_EQ(frame->drift_milli_bits, 37);

  // Second frame sees only the increments after the first.
  readings.add(48);
  const SeriesFrame* second = scraper.maybe_scrape(96);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->counter_deltas.at("monitor.readings_ingested"), 48u);
  EXPECT_DOUBLE_EQ(second->readings_per_slot, 1.0);
  EXPECT_DOUBLE_EQ(second->alerts_per_hour, 0.0);
  EXPECT_EQ(second->index, 1u);
}

TEST(Scraper, WithoutStartFirstFrameIsAbsolute) {
  MetricsRegistry reg;
  reg.counter("monitor.readings_ingested").add(7);
  MetricsScraper scraper({.registry = &reg, .interval_slots = 10});
  EXPECT_FALSE(scraper.due(9));
  const SeriesFrame* frame = scraper.maybe_scrape(10);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->counter_deltas.at("monitor.readings_ingested"), 7u);
}

TEST(Scraper, ScrapeRequiresAdvancingSlotClock) {
  MetricsRegistry reg;
  MetricsScraper scraper({.registry = &reg, .interval_slots = 10});
  scraper.start(5);
  scraper.scrape(6);
  EXPECT_THROW(scraper.scrape(6), InvalidArgument);
  EXPECT_THROW(scraper.scrape(3), InvalidArgument);
}

TEST(Scraper, LayoutScopedSeriesLandInEnv) {
  MetricsRegistry reg;
  reg.counter("pool.tasks_executed").add(11);
  reg.gauge("monitor.shard01.pending_highwater").set(9);
  reg.gauge("monitor.shard00.pending_highwater").set(4);
  reg.counter("monitor.readings_ingested").add(2);
  MetricsScraper scraper({.registry = &reg, .interval_slots = 1});
  const SeriesFrame& frame = scraper.scrape(1);
  EXPECT_EQ(frame.counter_deltas.count("pool.tasks_executed"), 0u);
  EXPECT_EQ(frame.env_counter_deltas.at("pool.tasks_executed"), 11u);
  EXPECT_EQ(frame.env_gauges.at("monitor.shard01.pending_highwater"), 9);
  // Worst shard = argmax over the per-shard high-water gauges.
  EXPECT_EQ(frame.worst_shard, 1);
  EXPECT_EQ(frame.worst_shard_depth, 9);
  // The det JSON must not leak any env key.
  const std::string det = frame.to_json(/*include_env=*/false);
  EXPECT_EQ(det.find("pool."), std::string::npos);
  EXPECT_EQ(det.find("shard"), std::string::npos);
  EXPECT_EQ(det.find("\"env\""), std::string::npos);
  EXPECT_NE(frame.to_json().find("\"env\""), std::string::npos);
}

// --- the acceptance criterion: byte-identical det series across layouts ---

std::string run_series(std::size_t shards, std::size_t threads) {
  const auto data = datagen::small_dataset(/*consumers=*/24, /*weeks=*/8,
                                           /*seed=*/99);
  const meter::TrainTestSplit split{.train_weeks = 4, .test_weeks = 4};
  MetricsRegistry reg;
  core::OnlineMonitorConfig config;
  config.shards = shards;
  config.threads = threads;
  config.metrics = &reg;
  core::OnlineMonitor monitor(config);
  monitor.fit(data, split);

  MetricsScraper scraper({.registry = &reg, .interval_slots = 168});
  scraper.start(split.train_weeks * kSlotsPerWeek);
  const std::size_t first = split.train_weeks * kSlotsPerWeek;
  const std::size_t last = data.week_count() * kSlotsPerWeek;
  for (std::size_t chunk = first; chunk < last; chunk += 168) {
    std::vector<core::Reading> batch;
    for (std::size_t s = chunk; s < chunk + 168; ++s) {
      for (std::size_t c = 0; c < data.consumer_count(); ++c) {
        batch.push_back(core::Reading{
            c, static_cast<SlotIndex>(s), data.consumer(c).readings[s],
            /*missing=*/(s + c) % 97 == 0});
      }
    }
    monitor.ingest_batch(batch);
    monitor.refresh_health_gauges();
    scraper.scrape(chunk + 168);
  }
  return scraper.store().to_jsonl(/*include_env=*/false);
}

TEST(Determinism, DetSeriesByteIdenticalAcrossLayouts) {
  const std::string base = run_series(/*shards=*/1, /*threads=*/1);
  EXPECT_NE(base.find("population_drift_milli_bits"), std::string::npos);
  EXPECT_EQ(run_series(/*shards=*/4, /*threads=*/2), base);
  EXPECT_EQ(run_series(/*shards=*/64, /*threads=*/0), base);
  EXPECT_EQ(run_series(/*shards=*/7, /*threads=*/3), base);
}

// --- Prometheus exposition -----------------------------------------------

std::string golden_path() {
  return std::string(FDETA_SOURCE_DIR) + "/tests/golden/metrics.prom";
}

MetricsSnapshot fixed_snapshot() {
  // Hand-built (no registry, no wall clock), so the exposition is
  // byte-stable and safe to golden-pin.
  MetricsSnapshot snap;
  snap.uptime_seconds = 1.5;
  snap.counters["ami.reports_received"] = 7;
  snap.counters["monitor.readings_ingested"] = 42;
  snap.gauges["ami.reports_missing"] = 3;
  snap.gauges["monitor.population_drift_milli_bits"] = -12;
  HistogramSnapshot h;
  h.upper_edges = {0.001, 0.01, 0.1};
  h.buckets = {2, 3, 0, 5};  // last = overflow
  h.count = 10;
  h.sum = 1.25;
  snap.histograms["monitor.ingest_batch_seconds"] = h;
  return snap;
}

TEST(Prometheus, GoldenFile) {
  const std::string exposition = to_prometheus(fixed_snapshot());
  if (std::getenv("FDETA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    out << exposition;
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path();
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(exposition, want.str());
}

TEST(Prometheus, FormatInvariants) {
  const std::string exposition = to_prometheus(fixed_snapshot());
  // Name mangling: '.' -> '_' everywhere, no dots survive in sample names.
  EXPECT_NE(exposition.find("monitor_readings_ingested 42"),
            std::string::npos);
  EXPECT_EQ(exposition.find("monitor.readings_ingested 42"),
            std::string::npos);
  // Buckets are cumulative and the +Inf bucket equals _count.
  EXPECT_NE(exposition.find(
                "monitor_ingest_batch_seconds_bucket{le=\"0.001\"} 2"),
            std::string::npos);
  EXPECT_NE(exposition.find(
                "monitor_ingest_batch_seconds_bucket{le=\"0.01\"} 5"),
            std::string::npos);
  EXPECT_NE(exposition.find(
                "monitor_ingest_batch_seconds_bucket{le=\"0.1\"} 5"),
            std::string::npos);
  EXPECT_NE(exposition.find(
                "monitor_ingest_batch_seconds_bucket{le=\"+Inf\"} 10"),
            std::string::npos);
  EXPECT_NE(exposition.find("monitor_ingest_batch_seconds_count 10"),
            std::string::npos);
  EXPECT_NE(exposition.find("monitor_ingest_batch_seconds_sum 1.25"),
            std::string::npos);
  // Build metadata leads the exposition.
  EXPECT_EQ(exposition.rfind("# HELP fdeta_build_info", 0), 0u);
  EXPECT_NE(exposition.find("fdeta_build_info{version=\""),
            std::string::npos);
  // Every sample family carries # HELP and # TYPE.
  EXPECT_NE(exposition.find("# TYPE monitor_readings_ingested counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("# TYPE ami_reports_missing gauge"),
            std::string::npos);
  EXPECT_NE(exposition.find("# TYPE monitor_ingest_batch_seconds histogram"),
            std::string::npos);
}

// --- HistogramSnapshot::quantile edge cases (satellite) -------------------

TEST(HistogramQuantile, EmptyReturnsZero) {
  HistogramSnapshot h;
  h.upper_edges = {1.0, 2.0};
  h.buckets = {0, 0, 0};
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, ExtremesAndClamping) {
  HistogramSnapshot h;
  h.upper_edges = {1.0, 2.0};
  h.buckets = {4, 4, 0};
  h.count = 8;
  // q is clamped into [0, 1]; q=0 floors at the first bucket's lower edge,
  // q=1 lands at the last populated finite edge.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.quantile(1.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
  EXPECT_LE(h.quantile(0.0), 1.0);
}

TEST(HistogramQuantile, AllOverflowClampsToLastFiniteEdge) {
  HistogramSnapshot h;
  h.upper_edges = {1.0, 2.0};
  h.buckets = {0, 0, 9};  // everything past the last finite edge
  h.count = 9;
  // An honest lower bound: the histogram cannot know how far past the edge
  // the observations landed.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

// --- scoreboard round trip ------------------------------------------------

TEST(Scoreboard, ParseRoundTripsScalarFields) {
  SeriesFrame frame;
  frame.index = 3;
  frame.slot = 2016;
  frame.slots_delta = 168;
  frame.counter_deltas["monitor.readings_ingested"] = 3360;
  frame.readings_per_slot = 20.0;
  frame.alerts_per_hour = 0.25;
  frame.coverage_gated_fraction = 0.125;
  frame.drift_milli_bits = 41;
  frame.burst_milli = 1240;
  frame.uptime_seconds = 2.5;
  frame.wall_delta_seconds = 0.5;
  frame.readings_per_sec = 6720.0;
  frame.p95_ingest_seconds = 0.0048;
  frame.worst_shard = 2;
  frame.worst_shard_depth = 672;

  const auto parsed = parse_series_frame(frame.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->index, 3u);
  EXPECT_EQ(parsed->slot, 2016u);
  EXPECT_EQ(parsed->slots_delta, 168u);
  EXPECT_DOUBLE_EQ(parsed->readings_per_slot, 20.0);
  EXPECT_DOUBLE_EQ(parsed->alerts_per_hour, 0.25);
  EXPECT_DOUBLE_EQ(parsed->coverage_gated_fraction, 0.125);
  EXPECT_EQ(parsed->drift_milli_bits, 41);
  EXPECT_EQ(parsed->burst_milli, 1240);
  EXPECT_DOUBLE_EQ(parsed->readings_per_sec, 6720.0);
  EXPECT_DOUBLE_EQ(parsed->p95_ingest_seconds, 0.0048);
  EXPECT_EQ(parsed->worst_shard, 2);
  EXPECT_EQ(parsed->worst_shard_depth, 672);
  // The same scoreboard line renders from the original and the parse.
  EXPECT_EQ(scoreboard_line(frame), scoreboard_line(*parsed));
  EXPECT_FALSE(parse_series_frame("not a frame").has_value());
  EXPECT_FALSE(parse_series_frame("{\"meta\": 1}").has_value());
}

// `fdeta stats` reads files it did not write: a frame line's value must be a
// number of its field's type, or the line throws; it is never cast into
// range.
TEST(Scoreboard, MalformedFrameValuesThrow) {
  for (const char* line : {
           R"({"frame":-1,"slot":1})",
           R"({"frame":0x10,"slot":1})",
           R"({"frame":1,"slot":1e300})",
           R"({"frame":1,"slot":18446744073709551616})",
           R"({"frame":1,"slot":"4200"})",
           R"({"frame":,"slot":1})",
           R"({"frame":1,"slot":1,"slots_delta":nan})",
           R"({"frame":1,"slot":1,"rates":{"readings_per_slot":inf}})",
           R"({"frame":1,"slot":1,"rates":{"alerts_per_hour":1e999}})",
           R"({"frame":1,"slot":1,"rates":{"drift_milli_bits":-1e30}})",
           R"({"frame":1,"slot":1,"rates":{"burst_milli":)"
           R"(9223372036854775808}})",
           R"({"frame":1,"slot":1,"env":{"worst_shard":1.5}})",
           R"({"frame":-1,"slot":1e300,"slots_delta":nan,"rates":{)"
           R"("readings_per_slot":inf,"drift_milli_bits":-1e30}})",
       }) {
    SCOPED_TRACE(line);
    EXPECT_THROW(parse_series_frame(line), DataError);
  }
  // Without both "frame" and "slot" a line is still not a frame at all.
  EXPECT_FALSE(parse_series_frame(R"({"frame":-1})").has_value());
  // The fields' extremes parse exactly.
  const auto edge = parse_series_frame(
      R"({"frame":18446744073709551615,"slot":0,)"
      R"("rates":{"drift_milli_bits":-9223372036854775808}})");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->index, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(edge->drift_milli_bits, std::numeric_limits<std::int64_t>::min());
}

TEST(Scoreboard, DetOnlyFrameStillRenders) {
  SeriesFrame frame;
  frame.index = 1;
  frame.slot = 336;
  frame.slots_delta = 336;
  const auto parsed = parse_series_frame(frame.to_json(false));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->worst_shard, -1);  // env fields keep their defaults
  const std::string line = scoreboard_line(*parsed);
  EXPECT_NE(line.find("336"), std::string::npos);
}

}  // namespace
}  // namespace fdeta::obs
