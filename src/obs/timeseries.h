// The time dimension of the telemetry layer: periodic scrapes of a
// MetricsRegistry into a bounded ring of delta frames, windowed rates
// derived from consecutive frames, JSONL series export, a Prometheus text
// exposition of a full snapshot, and the one-line fleet scoreboard the CLI
// prints per frame (`fdeta detect --stats-interval N` live, `fdeta stats`
// post-hoc from a --series-out file).
//
// Determinism contract (the metrics.h rules, extended to the time axis):
// frames are driven by the LOGICAL slot clock during ingest - the caller
// scrapes at fixed slot boundaries, so under a fixed seed the deterministic
// half of every frame (counter deltas, gauges, per-slot rates) is
// byte-identical across shard x thread layouts.  Everything wall-clock
// (uptime, latency-derived p95) or layout-scoped (per-shard series, pool
// counters, shard-imbalance gauges) lives in a separate `env` block that
// to_json()/to_jsonl() can exclude; is_layout_scoped_metric() is the single
// classification rule.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace fdeta::obs {

/// Bumped on ANY change to the series JSONL frame layout.
inline constexpr std::uint32_t kSeriesSchemaVersion = 1;

// is_layout_scoped_metric() (obs/metrics.h) is the classification rule for
// which metrics land in the env block.

/// One scrape: deltas against the previous frame plus the windowed rates
/// derived from them.  Split into a deterministic payload (counter deltas,
/// deterministic gauges, logical-clock rates) and an `env` payload
/// (wall-clock and layout-scoped values).
struct SeriesFrame {
  std::uint64_t index = 0;        ///< scrape number, 0-based
  std::uint64_t slot = 0;         ///< logical slot at scrape time
  std::uint64_t slots_delta = 0;  ///< slots since the previous frame (0 in
                                  ///< wall-clock mode)

  // -- deterministic payload -------------------------------------------
  /// Per-counter increase since the previous frame (deterministic counters
  /// only; unchanged counters are still listed, with delta 0).
  std::map<std::string, std::uint64_t> counter_deltas;
  /// Deterministic gauges, absolute values at scrape time.
  std::map<std::string, std::int64_t> gauges;
  /// monitor.readings_ingested delta / slots_delta.
  double readings_per_slot = 0.0;
  /// monitor.alerts_raised delta per logical hour (2 slots = 1 hour).
  double alerts_per_hour = 0.0;
  /// Coverage-gated fraction of scoring attempts in the window:
  /// gated / (gated + evaluated), 0 when nothing was attempted.
  double coverage_gated_fraction = 0.0;
  /// monitor.population_drift_milli_bits at scrape time (0 if absent).
  std::int64_t drift_milli_bits = 0;
  /// monitor.alert_burst_milli at scrape time (0 if absent).
  std::int64_t burst_milli = 0;

  // -- env payload (wall-clock + layout-scoped) ------------------------
  double uptime_seconds = 0.0;
  double wall_delta_seconds = 0.0;  ///< wall seconds since the previous frame
  /// monitor.readings_ingested delta / wall_delta_seconds (0 first frame).
  double readings_per_sec = 0.0;
  /// p95 of the monitor.ingest_batch_seconds observations WITHIN the window
  /// (quantile of the bucket deltas between frames), not cumulative.
  double p95_ingest_seconds = 0.0;
  /// Shard with the largest pending-batch high-water gauge (-1 if no
  /// per-shard series exist) and that gauge's value.
  std::int64_t worst_shard = -1;
  std::int64_t worst_shard_depth = 0;
  /// Layout-scoped counters (deltas) and gauges (absolute).
  std::map<std::string, std::uint64_t> env_counter_deltas;
  std::map<std::string, std::int64_t> env_gauges;

  /// One JSON object (single line, no trailing newline; keys in fixed
  /// order, doubles %.17g).  `include_env` false drops the `env` member -
  /// the byte-identical-across-layouts form.
  std::string to_json(bool include_env = true) const;
};

/// Bounded ring of frames: push() drops the oldest frame once `capacity`
/// is reached, so a long-lived service holds a sliding window, never an
/// unbounded log.
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(std::size_t capacity = 4096);

  void push(SeriesFrame frame);
  const std::deque<SeriesFrame>& frames() const { return frames_; }
  /// Frames evicted by the capacity bound since construction.
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }

  /// One frame per line, oldest first (each line a complete JSON object).
  std::string to_jsonl(bool include_env = true) const;

 private:
  std::size_t capacity_;
  std::deque<SeriesFrame> frames_;
  std::uint64_t dropped_ = 0;
};

struct MetricsScraperConfig {
  /// Registry to scrape; null = the process-wide default_registry().
  const MetricsRegistry* registry = nullptr;
  /// Slot-driven cadence: maybe_scrape(slot) fires once the slot clock has
  /// advanced at least this far past the previous frame.
  std::uint64_t interval_slots = 336;
};

/// Periodically snapshots a MetricsRegistry into delta frames.  Not
/// thread-safe: one scraper is driven from one control loop (the scrape is
/// off the hot path by design - producers never block on it; the snapshot
/// itself takes only the registry's creation/snapshot mutex).
class MetricsScraper {
 public:
  explicit MetricsScraper(MetricsScraperConfig config = {});

  /// Anchors the series at `slot`: captures the baseline snapshot so the
  /// first frame's deltas cover only what streamed after this point.
  /// Without start(), the first scrape baselines against an empty snapshot
  /// (deltas = absolute counter values) at slot 0.
  void start(std::uint64_t slot);

  /// True when `slot` is at least one interval past the previous frame.
  bool due(std::uint64_t slot) const;

  /// Scrapes when due; returns the new frame, or nullptr when not due.
  /// The pointer stays valid until the next push into the store evicts it.
  const SeriesFrame* maybe_scrape(std::uint64_t slot);

  /// Unconditional scrape at `slot` (used for a final partial-window frame;
  /// `slot` must be past the previous frame's slot).
  const SeriesFrame& scrape(std::uint64_t slot);

  const TimeSeriesStore& store() const { return store_; }
  std::uint64_t interval_slots() const { return config_.interval_slots; }

 private:
  MetricsScraperConfig config_;
  TimeSeriesStore store_;  // the default bound, 4096 frames
  MetricsSnapshot last_;
  bool started_ = false;
  std::uint64_t last_slot_ = 0;
  double last_uptime_ = 0.0;
  std::uint64_t next_index_ = 0;
};

/// Prometheus text exposition of a full snapshot: `# HELP`/`# TYPE` per
/// metric, names mangled '.' -> '_', histograms as cumulative
/// `_bucket{le="..."}` rows ending in `+Inf` (== `_count`) plus `_sum` and
/// `_count`.  Leads with an fdeta_build_info gauge (version/schema labels)
/// and the process uptime.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Fixed-width header for the live fleet scoreboard.
std::string scoreboard_header();
/// One scoreboard line for `frame` (rates, p95 ingest latency, worst
/// shard, drift/burst gauges).
std::string scoreboard_line(const SeriesFrame& frame);

/// Parses the scalar summary fields of one to_json() line back into a
/// frame (the counter/gauge maps are not reconstructed - the scoreboard
/// does not need them).  Returns nullopt for a line without "frame" and
/// "slot" keys (not a series frame).  Throws DataError when a frame's value
/// is malformed: the integer fields must be decimal integers in their
/// field's range (no sign on the unsigned ones), the rates finite decimals.
std::optional<SeriesFrame> parse_series_frame(std::string_view line);

}  // namespace fdeta::obs
