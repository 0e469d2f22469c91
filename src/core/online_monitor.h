// Continuous online monitoring for a whole population.
//
// The detection methods are "centralized online algorithms that would run at
// an electric utility's control center" (Section VII-A).  This service is
// that control-center loop: per-consumer sliding week vectors (the ref [3]
// time-to-detection machinery) are rescored as reported readings stream in
// from the AMI head-end, emitting alert events with a per-consumer cooldown
// so a single anomaly does not flood the operator queue.
//
// Thread-safety: fit() and ingest_batch() parallelise internally on the
// shared pool.  Per-consumer state is split into N independent shards
// (consistent hash of the consumer index; common/sharding.h), each behind
// its own mutex, so concurrent ingest()/ingest_batch() calls from multiple
// head-end feeds are safe and scale until feeds collide on a shard.
// Determinism: for a fixed reading order, scores / alerts / counters /
// checkpoint bytes are identical for ANY shard count and thread count -
// sharding moves locks around, never results.  alerts()/window()/save()
// still require no concurrent writer (quiesce feeds first).
//
// Telemetry (obs/metrics.h, "monitor." prefix): readings ingested / missing,
// the fate of every ingested reading (in cooldown, stride-skipped, coverage
// gated or scored), alerts raised split by direction, fit and per-batch
// latency histograms.  All counters are deterministic under a fixed seed
// and identical between the ingest() and ingest_batch() paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detector_fleet.h"
#include "grid/hierarchy/feeder_monitor.h"
#include "meter/dataset.h"

namespace fdeta {
namespace obs {
class Counter;
class EventLog;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs
}  // namespace fdeta

namespace fdeta::core {

/// Which way the triggering week vector deviates from the consumer's
/// training mean: under-reporting marks a suspected attacker (Proposition
/// 1), over-reporting a suspected victim (Proposition 2).
enum class AlertDirection : std::uint8_t { kUnderReport, kOverReport };

const char* to_string(AlertDirection direction);

struct AlertEvent {
  std::size_t consumer_index = 0;
  meter::ConsumerId consumer_id = 0;
  SlotIndex slot = 0;      ///< absolute slot of the triggering reading
  double score = 0.0;      ///< KLD of the sliding week vector
  double threshold = 0.0;
  AlertDirection direction = AlertDirection::kUnderReport;
};

/// One reported reading as delivered by the AMI head-end.  `missing` marks
/// a slot the head-end never received (see HeadEnd::consumer_readings with
/// a mask): it is counted, not imputed - the sliding window keeps its last
/// slot-aligned value and no score is evaluated for it.
struct Reading {
  std::size_t consumer_index = 0;
  SlotIndex slot = 0;  ///< absolute slot of the reading
  Kw kw = 0.0;
  bool missing = false;
};

struct OnlineMonitorConfig {
  /// Registered detector family run per consumer (core/detector_registry.h).
  std::string detector = "kld";
  /// Knobs for every family; `detector_options.kld` holds the KLD
  /// histogram knobs (bins, significance, epsilon).
  DetectorOptions detector_options{};
  /// Rescore the sliding vector every `stride` readings (1 = every reading;
  /// 4 = every two hours) - an operator-tunable cost/latency trade.
  std::size_t stride = 4;
  /// After an alert, suppress further alerts for this consumer until this
  /// many readings have passed (default: one day).
  std::size_t cooldown_slots = 48;
  /// Coverage gate: when more than this fraction of a consumer's sliding
  /// week vector is marked missing, the vector is NOT scored (the stale
  /// slot-aligned fill would otherwise be judged as if observed, and a lossy
  /// week reads as an under-report attack).  Counted under
  /// monitor.scores_coverage_gated.
  double max_missing_fraction = 0.25;
  /// Parallelism cap for fit()/ingest_batch() on the shared pool
  /// (0 = full pool width, 1 = serial).
  std::size_t threads = 0;
  /// Independent per-consumer state shards, each behind its own lock (0 =
  /// auto-size from the parallelism; see common/sharding.h).  Purely a
  /// concurrency knob: results are bit-identical for any value.
  std::size_t shards = 0;
  /// Telemetry sink; null = the process-wide obs::default_registry().
  obs::MetricsRegistry* metrics = nullptr;
  /// Domain-event sink; null = the process-wide obs::default_event_log().
  /// Emits alert_raised per alert (in alerts() order) and model_restored on
  /// restore().
  obs::EventLog* events = nullptr;
  /// Optional feeder-hierarchy layer (ROADMAP item 3): when non-null, fit()
  /// also fits a hierarchy::FeederMonitor over this radial tree and
  /// evaluate_feeders() scores its internal nodes over the sliding windows.
  /// Must outlive the monitor; its consumer count must match the fleet.
  const grid::Topology* topology = nullptr;
  /// Hierarchy knobs; `threads`/`metrics`/`events` inherit the monitor's
  /// values when left at their defaults.
  hierarchy::FeederConfig feeder{};
};

class OnlineMonitor {
 public:
  explicit OnlineMonitor(OnlineMonitorConfig config = {});

  /// Trains per-consumer detectors on the first `split.train_weeks` weeks of
  /// `history` and primes each sliding vector with the last training week.
  void fit(const meter::Dataset& history, const meter::TrainTestSplit& split);

  /// As fit(), but materialises one consumer series at a time via `source`
  /// instead of requiring the whole fleet's history in memory at once (a
  /// million-consumer horizon is tens of gigabytes of readings; the fitted
  /// state is a fraction of that).  `source(i)` must return consumer i's
  /// series and be safe to call concurrently for distinct i.  Produces state
  /// bit-identical to fit() on a dataset holding the same series.
  void fit_streaming(
      std::size_t count,
      const std::function<meter::ConsumerSeries(std::size_t)>& source,
      const meter::TrainTestSplit& split);

  /// Ingests one reported reading; returns an alert when the consumer's
  /// sliding week vector crosses its threshold (subject to stride/cooldown).
  /// Thread-safe: takes the consumer's shard lock.
  std::optional<AlertEvent> ingest(std::size_t consumer_index, SlotIndex slot,
                                   Kw reading);

  /// As above, honouring `reading.missing` (counted, never applied).
  std::optional<AlertEvent> ingest(const Reading& reading);

  /// Ingests a batch of readings (one head-end delivery), processing shards
  /// in parallel on the shared pool.  Per-consumer readings are applied in
  /// batch order and the raised alerts are merged back into batch arrival
  /// order, so the returned alerts (also appended to alerts()) and the
  /// emitted events are identical to calling ingest() once per reading, in
  /// the same order - for any shard count x thread count.
  /// Validates every consumer index up front; on failure nothing is applied.
  std::vector<AlertEvent> ingest_batch(std::span<const Reading> readings);

  /// All alerts raised so far, in ingestion order.
  const std::vector<AlertEvent>& alerts() const { return alerts_; }

  /// Serializes the fitted monitor (detectors, sliding windows, stride /
  /// cooldown counters, alert log) as a checkpoint (persist/checkpoint.h).
  /// Requires fit() to have run.
  void save(std::ostream& out) const;

  /// Restores a save() checkpoint, replacing this monitor's fit, window
  /// state, and the fit-related config (detector family and options, the
  /// feeder's too, stride, cooldown_slots, max_missing_fraction; `threads`,
  /// `metrics` and `shards` keep their constructed values).  Subsequent
  /// ingest calls behave bit-identically to the monitor that was saved.
  /// The file holds three sections (DESIGN.md §9): the small state (config,
  /// detector block, per-consumer counters, alerts, feeder block), then the
  /// sliding windows and the missing-slot bitset, each read straight into
  /// place; the "kld" detector rebuild runs on the shared pool.  Throws
  /// DataError on a corrupted, truncated or version-mismatched file and
  /// leaves this monitor untouched.
  void restore(std::istream& in);

  /// The consumer's sliding week vector, indexed by slot-of-week (exposed
  /// for diagnostics and alignment tests).
  std::span<const Kw> window(std::size_t consumer_index) const;

  /// The active config (restore overwrites the fit-related fields).
  const OnlineMonitorConfig& config() const { return config_; }

  std::size_t consumer_count() const { return fleet_.size(); }

  /// Resolved shard count (config.shards, or the auto-sized value).
  std::size_t shard_count() const { return shard_count_; }

  /// Recomputes the two fleet-health gauges from the readings ingested since
  /// the previous refresh: `monitor.population_drift_milli_bits` (KL
  /// divergence, in milli-bits, of the recent reading-magnitude distribution
  /// against the population baseline captured at fit/restore time) and
  /// `monitor.alert_burst_milli` (recent alert rate over the lifetime alert
  /// rate, x1000).  Deterministic for a fixed reading order when called at
  /// fixed points in that order (e.g. every N slots); call quiesced - it
  /// reads and resets the recent-window accumulators.  No-op before fit().
  void refresh_health_gauges();

  /// Scores every feeder node of config.topology over the current sliding
  /// windows (emitting feeder_alert_raised / collusion_suspected events and
  /// updating the hierarchy gauges).  Consumers in cooldown count as
  /// individually flagged and are excluded from collusion groups.  Call
  /// quiesced at deterministic points in the reading order (e.g. week
  /// boundaries): the windows and cooldowns are layout-invariant, so the
  /// report is byte-identical for any shard x thread layout.  Requires
  /// fit() with a configured topology.
  hierarchy::FeederReport evaluate_feeders(SlotIndex slot);

  /// The feeder-hierarchy layer, or null when no topology is configured.
  const hierarchy::FeederMonitor* feeder() const { return feeder_.get(); }

 private:
  /// The hierarchy config with `threads`/`metrics`/`events` defaulted from
  /// the monitor's own values.
  hierarchy::FeederConfig resolved_feeder_config() const;

  /// Sizes the Struct-of-Arrays fleet state and shards for `count`
  /// consumers (everything zeroed; the detector fleet unfitted, sized for
  /// `weeks` training weeks).
  void init_fleet(std::size_t count, std::size_t weeks);

  /// Sizes the shard layer for `count` consumers (shard_count_, locks) and
  /// resolves the per-shard health metric pointers (bounded cardinality: at
  /// most 64 instrumented slots; larger fleets alias shard s onto s % 64).
  void init_shards(std::size_t count);

  /// Rebuilds the population-health baseline (linear reading-magnitude bins
  /// over the primed sliding windows) and zeroes the recent-window
  /// accumulators.  Called at the end of fit/fit_streaming/restore, so drift
  /// is always measured against the population distribution at service
  /// start.
  void rebuild_health_baseline();

  /// Bin index into the health histogram for one reading value.
  std::size_t health_bin(double v) const;

  /// Fits consumer i's detector and primes its sliding window from `series`
  /// (shared by fit() and fit_streaming(); safe concurrently for distinct i).
  void fit_one(std::size_t i, const meter::ConsumerSeries& series,
               const meter::TrainTestSplit& split);

  /// Plain per-call tallies of apply(), flushed into the shared counters
  /// once per shard per batch (once per ingest() call).
  struct Tally;

  /// Applies one reading to its consumer's state, counting its fate in
  /// `tally`; does NOT touch alerts_ (callers append, preserving ingestion
  /// order across a parallel batch).  The caller must hold the consumer's
  /// shard lock.
  std::optional<AlertEvent> apply(const Reading& reading, Tally& tally);

  /// Adds a tally to the shared counters and health accumulators (atomic,
  /// so flushes from concurrent shards keep the totals exact).
  void flush(const Tally& tally);

  /// Sizes the counted windows for the fitted fleet, every consumer
  /// uncounted (end of fit/fit_streaming/restore).
  void reset_counted_windows();

  /// Consumer i's counts, counted from its window on first use after
  /// fit/restore (the caller holds its shard lock).
  std::span<const std::uint16_t> counted_window(std::size_t i);

  /// Emits an alert_raised event for `event` (no-op while the sink is
  /// disabled).  Called serially, in alerts() order.
  void emit_alert(const AlertEvent& event) const;

  OnlineMonitorConfig config_;
  DetectorFleet fleet_;  // one detector per consumer
  std::vector<meter::ConsumerId> ids_;

  // Per-consumer sliding-window state, Struct-of-Arrays: one flat array per
  // field, indexed consumer-major, so the binning / KLD hot loops stream
  // contiguous memory instead of chasing per-consumer vectors.
  //
  // windows_[i*336 + s] is consumer i's freshest reading for slot-of-week s:
  // the vector handed to the detector is slot-aligned by construction (a
  // ring buffer rotated by its write cursor is only accidentally correct
  // for the order-insensitive plain KLD and breaks slot-aligned detectors
  // such as the price-conditioned KLD).
  std::vector<Kw> windows_;            // count x kSlotsPerWeek
  /// Bitset of the slot-of-week positions whose freshest value was never
  /// delivered (cleared when a real reading arrives): bit s % 64 of word
  /// i*6 + s/64, the last word's top 48 bits always zero.  Each consumer
  /// owns whole words: neighbours can live in different shards, and a
  /// shared word would race under ingest_batch.
  std::vector<std::uint64_t> missing_; // count x 6
  std::vector<std::uint32_t> missing_in_window_;  ///< popcount, O(1) gate
  std::vector<std::uint32_t> since_score_;
  std::vector<std::uint32_t> cooldown_;
  std::vector<double> train_mean_;  ///< training-span mean, alert direction
  /// Counted windows (DetectorFleet's count contract): counts_[i*W ..
  /// (i+1)*W) holds consumer i's window as its detector's W =
  /// count_words_ count words, kept current one reading at a time once
  /// counted_[i] is set, so a rescore scores O(bins) words instead of
  /// re-binning 336 readings.  Derived state: never checkpointed, and
  /// rebuilt lazily from windows_ on a consumer's first rescore after
  /// fit/restore.
  std::size_t count_words_ = 0;
  std::vector<std::uint16_t> counts_;   // count x count_words_
  std::vector<std::uint8_t> counted_;   // count; 1 = counts_ row current

  // Shard layer: shard_of(i, shard_count_) owns consumer i's state above.
  std::size_t shard_count_ = 1;
  std::unique_ptr<std::mutex[]> shard_locks_;
  mutable std::mutex alerts_mutex_;  // guards alerts_ + serialised emission

  std::vector<AlertEvent> alerts_;
  bool fitted_ = false;

  /// Feeder-hierarchy layer; built by fit()/restore() when config_.topology
  /// is set (and, for restore, the checkpoint carries a hierarchy block).
  std::unique_ptr<hierarchy::FeederMonitor> feeder_;

  // Cached at construction; updates are lock-free (see obs/metrics.h).
  obs::Counter* consumers_fitted_ = nullptr;
  obs::Counter* consumers_restored_ = nullptr;
  obs::Counter* readings_ingested_ = nullptr;
  obs::Counter* readings_missing_ = nullptr;
  obs::Counter* readings_in_cooldown_ = nullptr;
  obs::Counter* readings_stride_skipped_ = nullptr;
  obs::Counter* scores_evaluated_ = nullptr;
  obs::Counter* scores_coverage_gated_ = nullptr;
  obs::Counter* alerts_raised_ = nullptr;
  obs::Counter* alerts_over_ = nullptr;
  obs::Counter* alerts_under_ = nullptr;
  obs::Histogram* fit_seconds_ = nullptr;
  obs::Histogram* batch_seconds_ = nullptr;
  obs::MetricsRegistry* registry_ = nullptr;  // never null after construction
  obs::EventLog* events_ = nullptr;           // never null after construction

  // Per-shard health series ("monitor.shardNN.*"), resolved by
  // init_shards(); at most 64 instrumented slots (shards alias via
  // s % 64 past that - a fixed cardinality budget, never per-shard names
  // without bound).  Updated only on the batched ingest path.
  std::vector<obs::Gauge*> shard_pending_;
  std::vector<obs::Gauge*> shard_highwater_;
  std::vector<obs::Histogram*> shard_lock_wait_;
  obs::Gauge* shard_imbalance_ = nullptr;
  /// Cumulative readings applied per shard (guarded by that shard's lock;
  /// summed after the batch barrier for the imbalance gauge).
  std::vector<std::uint64_t> shard_applied_;

  // Population-health state (ROADMAP item 5 seed).  The baseline is frozen
  // at fit/restore; the recent window accumulates in relaxed atomics,
  // flushed from the per-call tallies, and is drained by
  // refresh_health_gauges().
  double health_bin_scale_ = 0.0;  ///< bins / max_kw (0 = not yet baselined)
  std::vector<std::uint64_t> health_baseline_counts_;
  std::uint64_t health_baseline_total_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> health_recent_;
  std::atomic<std::uint64_t> health_readings_{0};
  std::atomic<std::uint64_t> health_alerts_{0};
  std::uint64_t last_health_readings_ = 0;
  std::uint64_t last_health_alerts_ = 0;
  obs::Gauge* drift_gauge_ = nullptr;
  obs::Gauge* burst_gauge_ = nullptr;
};

}  // namespace fdeta::core
