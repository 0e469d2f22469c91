#include "core/online_monitor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>

#include "common/error.h"
#include "common/sharding.h"
#include "common/thread_pool.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/binary_io.h"
#include "persist/checkpoint.h"
#include "stats/descriptive.h"

namespace fdeta::core {

namespace {

constexpr std::size_t kWindow = static_cast<std::size_t>(kSlotsPerWeek);

// The missing-slot bitset: whole u64 words per consumer, the bits past
// kWindow in the last word are padding and stay zero.
constexpr std::size_t kMaskWords = (kWindow + 63) / 64;
static_assert(kWindow % 64 != 0);
constexpr std::uint64_t kMaskPadding = ~std::uint64_t{0} << (kWindow % 64);

// An encoded AlertEvent: consumer index, id, slot, score, threshold,
// direction.
constexpr std::size_t kAlertBytes = 8 + 4 + 8 + 8 + 8 + 1;

// Population-health histogram: linear reading-magnitude bins over the fleet's
// primed sliding windows.  32 bins keeps the KLD estimate stable at modest
// window sizes while staying cheap to drain per refresh.
constexpr std::size_t kHealthBins = 32;

// Per-shard metric-name cardinality budget: at most this many "shardNN"
// series per component; fleets sharded wider alias onto s % kMaxShardSeries.
constexpr std::size_t kMaxShardSeries = 64;

std::string shard_metric_name(const char* component, std::size_t slot,
                              const char* what) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s.shard%02zu.%s", component, slot, what);
  return buf;
}

// KL divergence, in bits, of the `recent` counts against the `baseline`
// counts with +0.5 additive smoothing per bin (both sides), so empty bins
// never produce infinities.
double smoothed_kld_bits(const std::uint64_t* recent,
                         std::uint64_t recent_total,
                         const std::uint64_t* baseline,
                         std::uint64_t baseline_total, std::size_t bins) {
  const double half_bins = 0.5 * static_cast<double>(bins);
  const double p_norm = static_cast<double>(recent_total) + half_bins;
  const double q_norm = static_cast<double>(baseline_total) + half_bins;
  double kld = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    const double p = (static_cast<double>(recent[b]) + 0.5) / p_norm;
    const double q = (static_cast<double>(baseline[b]) + 0.5) / q_norm;
    kld += p * std::log2(p / q);
  }
  return kld < 0.0 ? 0.0 : kld;  // numerically clamp; KLD >= 0
}

}  // namespace

struct OnlineMonitor::Tally {
  std::uint64_t ingested = 0;
  std::uint64_t missing = 0;
  std::uint64_t in_cooldown = 0;
  std::uint64_t stride_skipped = 0;
  std::uint64_t coverage_gated = 0;
  std::uint64_t scored = 0;
  std::uint64_t alerts_over = 0;
  std::uint64_t alerts_under = 0;
  std::array<std::uint64_t, kHealthBins> health{};  ///< ingested, by bin
};

const char* to_string(AlertDirection direction) {
  switch (direction) {
    case AlertDirection::kUnderReport: return "under-report";
    case AlertDirection::kOverReport: return "over-report";
  }
  return "?";
}

OnlineMonitor::OnlineMonitor(OnlineMonitorConfig config) : config_(config) {
  require(config_.stride >= 1, "OnlineMonitor: stride must be >= 1");
  require(config_.max_missing_fraction >= 0.0 &&
              config_.max_missing_fraction <= 1.0,
          "OnlineMonitor: max_missing_fraction out of [0,1]");
  obs::MetricsRegistry& registry = config_.metrics != nullptr
                                       ? *config_.metrics
                                       : obs::default_registry();
  consumers_fitted_ = &registry.counter("monitor.consumers_fitted");
  consumers_restored_ = &registry.counter("monitor.consumers_restored");
  readings_ingested_ = &registry.counter("monitor.readings_ingested");
  readings_missing_ = &registry.counter("monitor.readings_missing");
  readings_in_cooldown_ = &registry.counter("monitor.readings_in_cooldown");
  readings_stride_skipped_ =
      &registry.counter("monitor.readings_stride_skipped");
  scores_evaluated_ = &registry.counter("monitor.scores_evaluated");
  scores_coverage_gated_ =
      &registry.counter("monitor.scores_coverage_gated");
  alerts_raised_ = &registry.counter("monitor.alerts_raised");
  alerts_over_ = &registry.counter("monitor.alerts_over_report");
  alerts_under_ = &registry.counter("monitor.alerts_under_report");
  fit_seconds_ = &registry.histogram("monitor.fit_seconds");
  batch_seconds_ = &registry.histogram("monitor.ingest_batch_seconds");
  shard_imbalance_ = &registry.gauge("monitor.shard_imbalance_milli");
  drift_gauge_ = &registry.gauge("monitor.population_drift_milli_bits");
  burst_gauge_ = &registry.gauge("monitor.alert_burst_milli");
  registry_ = &registry;
  events_ = config_.events != nullptr ? config_.events
                                      : &obs::default_event_log();
}

void OnlineMonitor::init_shards(std::size_t count) {
  const std::size_t hint = config_.threads != 0
                               ? config_.threads
                               : shared_pool().thread_count() + 1;
  shard_count_ = resolve_shard_count(config_.shards, count, hint);
  shard_locks_ = std::make_unique<std::mutex[]>(shard_count_);
  const std::size_t instrumented = std::min(shard_count_, kMaxShardSeries);
  shard_pending_.resize(instrumented);
  shard_highwater_.resize(instrumented);
  shard_lock_wait_.resize(instrumented);
  for (std::size_t s = 0; s < instrumented; ++s) {
    shard_pending_[s] =
        &registry_->gauge(shard_metric_name("monitor", s, "pending_depth"));
    shard_highwater_[s] = &registry_->gauge(
        shard_metric_name("monitor", s, "pending_highwater"));
    shard_lock_wait_[s] = &registry_->histogram(
        shard_metric_name("monitor", s, "lock_wait_seconds"));
  }
  shard_applied_.assign(shard_count_, 0);
}

std::size_t OnlineMonitor::health_bin(double v) const {
  // Linear bins over [0, max_kw], upper-inclusive edges at max_kw * b / bins,
  // everything past max_kw merged into the top bin.  Arithmetic instead of a
  // binary search over an edge table: this runs per reading in apply() and
  // per stored window in rebuild_health_baseline(), where the extra ~5
  // branches of a lower_bound measurably slowed the warm-restore path.
  if (!(v > 0.0)) return 0;
  const double scaled = std::ceil(v * health_bin_scale_);
  if (scaled >= static_cast<double>(kHealthBins)) return kHealthBins - 1;
  return static_cast<std::size_t>(scaled) - 1;
}

void OnlineMonitor::rebuild_health_baseline() {
  // Two passes over count x 336 windows (max, then bin counts).  At mega
  // fleet scale this sits on the warm-restore path, so both passes run
  // chunked on the shared pool; per-chunk partials keep the reduction
  // order-independent (max and sums commute), preserving determinism.
  const std::size_t total = windows_.size();
  const std::size_t per_chunk = 1 << 16;
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min<std::size_t>(64, (total + per_chunk - 1) / per_chunk));
  const std::size_t stride = (total + chunks - 1) / chunks;
  std::vector<double> chunk_max(chunks, 0.0);
  parallel_for(
      chunks,
      [&](std::size_t k) {
        double m = 0.0;
        const std::size_t hi = std::min(total, (k + 1) * stride);
        for (std::size_t i = k * stride; i < hi; ++i) {
          m = std::max(m, windows_[i]);
        }
        chunk_max[k] = m;
      },
      config_.threads);
  double max_kw = 0.0;
  for (const double m : chunk_max) max_kw = std::max(max_kw, m);
  if (max_kw <= 0.0) max_kw = 1.0;
  health_bin_scale_ = static_cast<double>(kHealthBins) / max_kw;

  std::vector<std::vector<std::uint64_t>> chunk_counts(
      chunks, std::vector<std::uint64_t>(kHealthBins, 0));
  parallel_for(
      chunks,
      [&](std::size_t k) {
        auto& counts = chunk_counts[k];
        const std::size_t hi = std::min(total, (k + 1) * stride);
        for (std::size_t i = k * stride; i < hi; ++i) {
          ++counts[health_bin(windows_[i])];
        }
      },
      config_.threads);
  health_baseline_counts_.assign(kHealthBins, 0);
  for (const auto& counts : chunk_counts) {
    for (std::size_t b = 0; b < kHealthBins; ++b) {
      health_baseline_counts_[b] += counts[b];
    }
  }
  health_baseline_total_ = total;
  health_recent_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(kHealthBins);
  for (std::size_t b = 0; b < kHealthBins; ++b) {
    health_recent_[b].store(0, std::memory_order_relaxed);
  }
  health_readings_.store(0, std::memory_order_relaxed);
  health_alerts_.store(0, std::memory_order_relaxed);
  last_health_readings_ = 0;
  last_health_alerts_ = 0;
  drift_gauge_->set(0);
  burst_gauge_->set(0);
}

void OnlineMonitor::refresh_health_gauges() {
  if (!fitted_ || health_bin_scale_ <= 0.0) return;
  const std::uint64_t readings_total =
      health_readings_.load(std::memory_order_relaxed);
  const std::uint64_t alerts_total =
      health_alerts_.load(std::memory_order_relaxed);
  const std::uint64_t readings_delta = readings_total - last_health_readings_;
  const std::uint64_t alerts_delta = alerts_total - last_health_alerts_;
  if (readings_delta == 0) return;  // nothing new: gauges keep their values

  std::uint64_t recent[kHealthBins];
  for (std::size_t b = 0; b < kHealthBins; ++b) {
    recent[b] = health_recent_[b].exchange(0, std::memory_order_relaxed);
  }
  const double kld = smoothed_kld_bits(
      recent, readings_delta, health_baseline_counts_.data(),
      health_baseline_total_, kHealthBins);
  drift_gauge_->set(std::llround(1000.0 * kld));

  // Burst factor: the recent window's alert rate over the lifetime alert
  // rate (1000 = steady state).  Zero until any alert has ever been raised.
  if (alerts_total > 0 && readings_total > 0) {
    const double recent_rate = static_cast<double>(alerts_delta) /
                               static_cast<double>(readings_delta);
    const double lifetime_rate = static_cast<double>(alerts_total) /
                                 static_cast<double>(readings_total);
    burst_gauge_->set(std::llround(1000.0 * recent_rate / lifetime_rate));
  } else {
    burst_gauge_->set(0);
  }
  last_health_readings_ = readings_total;
  last_health_alerts_ = alerts_total;
}

void OnlineMonitor::emit_alert(const AlertEvent& event) const {
  if (!events_->enabled()) return;
  events_->emit(
      "alert_raised",
      obs::EventFields{}
          .str("source", "monitor")
          .u64("consumer", event.consumer_id)
          .u64("week", event.slot / static_cast<SlotIndex>(kSlotsPerWeek))
          .u64("slot", event.slot)
          .f64("k_a", event.score)
          .f64("threshold", event.threshold)
          .str("direction", to_string(event.direction)));
}

void OnlineMonitor::init_fleet(std::size_t count, std::size_t weeks) {
  fleet_ = DetectorFleet(config_.detector, config_.detector_options, count,
                         weeks);
  ids_.assign(count, meter::ConsumerId{});
  windows_.assign(count * kWindow, 0.0);
  missing_.assign(count * kMaskWords, 0);
  missing_in_window_.assign(count, 0);
  since_score_.assign(count, 0);
  cooldown_.assign(count, 0);
  train_mean_.assign(count, 0.0);
  init_shards(count);
}

void OnlineMonitor::fit_one(std::size_t i, const meter::ConsumerSeries& series,
                            const meter::TrainTestSplit& split) {
  const auto train = split.train(series);
  fleet_.fit(i, train);
  ids_[i] = series.id;
  // Prime with the last (trusted) training week.  Training spans start at a
  // week boundary, so the primed vector is slot-of-week aligned.
  std::copy(train.end() - kWindow, train.end(),
            windows_.begin() + static_cast<std::ptrdiff_t>(i * kWindow));
  train_mean_[i] = stats::mean(train);
}

hierarchy::FeederConfig OnlineMonitor::resolved_feeder_config() const {
  // The hierarchy layer shares the monitor's pool cap and telemetry/event
  // sinks unless the caller pinned its own.
  hierarchy::FeederConfig cfg = config_.feeder;
  if (cfg.threads == 0) cfg.threads = config_.threads;
  if (cfg.metrics == nullptr) cfg.metrics = config_.metrics;
  if (cfg.events == nullptr) cfg.events = config_.events;
  return cfg;
}

void OnlineMonitor::fit(const meter::Dataset& history,
                        const meter::TrainTestSplit& split) {
  obs::TraceSpan span("monitor.fit", "monitor");
  obs::ScopedTimer timer(*fit_seconds_);
  fitted_ = false;
  alerts_.clear();
  feeder_.reset();

  const std::size_t count = history.consumer_count();
  init_fleet(count, split.train_weeks);
  // Per-consumer fits are independent; run them on the shared pool.
  parallel_for(
      count, [&](std::size_t i) { fit_one(i, history.consumer(i), split); },
      config_.threads);
  if (config_.topology != nullptr) {
    feeder_ = std::make_unique<hierarchy::FeederMonitor>(
        *config_.topology, resolved_feeder_config());
    feeder_->fit(history, split);
  }
  reset_counted_windows();
  rebuild_health_baseline();
  fitted_ = true;
  consumers_fitted_->add(count);
}

void OnlineMonitor::fit_streaming(
    std::size_t count,
    const std::function<meter::ConsumerSeries(std::size_t)>& source,
    const meter::TrainTestSplit& split) {
  obs::TraceSpan span("monitor.fit_streaming", "monitor");
  obs::ScopedTimer timer(*fit_seconds_);
  require(static_cast<bool>(source), "OnlineMonitor: null series source");
  fitted_ = false;
  alerts_.clear();
  feeder_.reset();

  init_fleet(count, split.train_weeks);
  // Each iteration materialises exactly one consumer's series, fits, and
  // drops it: peak memory is the fitted state plus `threads` series, never
  // the fleet's full history.
  parallel_for(
      count,
      [&](std::size_t i) {
        const meter::ConsumerSeries series = source(i);
        fit_one(i, series, split);
      },
      config_.threads);
  if (config_.topology != nullptr) {
    // A second (serial) pass over the source: the feeder layer accumulates
    // per-node aggregates in ascending consumer order, producing state
    // bit-identical to the in-memory fit() path.
    feeder_ = std::make_unique<hierarchy::FeederMonitor>(
        *config_.topology, resolved_feeder_config());
    feeder_->fit_streaming(count, source, split);
  }
  reset_counted_windows();
  rebuild_health_baseline();
  fitted_ = true;
  consumers_fitted_->add(count);
}

hierarchy::FeederReport OnlineMonitor::evaluate_feeders(SlotIndex slot) {
  require(fitted_, "OnlineMonitor: fit() not called");
  require(feeder_ != nullptr,
          "OnlineMonitor: evaluate_feeders requires a configured topology");
  // Consumers still in their alert cooldown were individually flagged
  // recently; the hierarchy layer only localizes the sub-threshold rest.
  // Windows and cooldowns are layout-invariant state, so this mask - and
  // the whole report - is byte-identical for any shard x thread layout.
  std::vector<unsigned char> flagged(fleet_.size(), 0);
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    flagged[i] = cooldown_[i] > 0 ? 1 : 0;
  }
  return feeder_->evaluate_windows(
      [this](std::size_t i) {
        return std::span<const Kw>(windows_.data() + i * kWindow, kWindow);
      },
      slot, flagged);
}

void OnlineMonitor::reset_counted_windows() {
  count_words_ = fleet_.count_words();
  counts_.assign(fleet_.size() * count_words_, 0);
  counted_.assign(fleet_.size(), 0);
}

std::span<const std::uint16_t> OnlineMonitor::counted_window(std::size_t i) {
  const std::span<std::uint16_t> counts{counts_.data() + i * count_words_,
                                        count_words_};
  if (counted_[i] == 0) {
    // windows_ index s holds slot-of-week s: a week from slot-of-week 0.
    fleet_.count_week(i, {windows_.data() + i * kWindow, kWindow}, 0, counts);
    counted_[i] = 1;
  }
  return counts;
}

void OnlineMonitor::flush(const Tally& tally) {
  const auto add = [](obs::Counter* counter, std::uint64_t n) {
    if (n > 0) counter->add(n);
  };
  const std::uint64_t alerts = tally.alerts_over + tally.alerts_under;
  add(readings_ingested_, tally.ingested);
  add(readings_missing_, tally.missing);
  add(readings_in_cooldown_, tally.in_cooldown);
  add(readings_stride_skipped_, tally.stride_skipped);
  add(scores_coverage_gated_, tally.coverage_gated);
  add(scores_evaluated_, tally.scored);
  add(alerts_raised_, alerts);
  add(alerts_over_, tally.alerts_over);
  add(alerts_under_, tally.alerts_under);
  // Population-health accounting (bins shared across shards, so the counts
  // are layout-invariant).
  for (std::size_t b = 0; b < kHealthBins; ++b) {
    if (tally.health[b] > 0) {
      health_recent_[b].fetch_add(tally.health[b], std::memory_order_relaxed);
    }
  }
  health_readings_.fetch_add(tally.ingested, std::memory_order_relaxed);
  health_alerts_.fetch_add(alerts, std::memory_order_relaxed);
}

std::optional<AlertEvent> OnlineMonitor::apply(const Reading& reading,
                                               Tally& tally) {
  const std::size_t i = reading.consumer_index;
  const std::size_t base = i * kWindow;
  const std::size_t position = static_cast<std::size_t>(reading.slot) % kWindow;
  std::uint64_t& mask = missing_[i * kMaskWords + position / 64];
  const std::uint64_t bit = std::uint64_t{1} << (position % 64);

  if (reading.missing) {
    // A dropped report carries no information: keep the last slot-aligned
    // value (do NOT impute 0 - a zero week is exactly what an under-report
    // attack looks like) and account for the gap.  The slot position goes
    // stale, which feeds the coverage gate below.  The stride and cooldown
    // clocks advance on OBSERVED readings only - an outage must not eat a
    // consumer's cooldown or stride budget while nothing is being measured.
    ++tally.missing;
    if (!(mask & bit)) {
      mask |= bit;
      ++missing_in_window_[i];
    }
    return std::nullopt;
  }
  ++tally.ingested;
  ++tally.health[health_bin(reading.kw)];

  Kw& stored = windows_[base + position];
  if (counted_[i] != 0) {
    // Keep the counted window current: the replaced reading moves out of
    // the counts and the incoming one moves in.
    const std::span<std::uint16_t> counts{counts_.data() + i * count_words_,
                                          count_words_};
    fleet_.count_reading(i, counts, position, stored, -1);
    fleet_.count_reading(i, counts, position, reading.kw, +1);
  }
  stored = reading.kw;
  if (mask & bit) {
    mask &= ~bit;
    --missing_in_window_[i];
  }
  if (cooldown_[i] > 0) {
    --cooldown_[i];
    ++tally.in_cooldown;
    return std::nullopt;
  }
  if (++since_score_[i] < config_.stride) {
    ++tally.stride_skipped;
    return std::nullopt;
  }
  since_score_[i] = 0;

  if (static_cast<double>(missing_in_window_[i]) >
      config_.max_missing_fraction * static_cast<double>(kWindow)) {
    // Too much of the sliding vector is a stale fill: scoring it would let
    // delivery loss masquerade as theft.  Skip until coverage recovers.
    ++tally.coverage_gated;
    return std::nullopt;
  }

  ++tally.scored;
  // windows_ is slot-of-week aligned (index s = slot-of-week s), so its
  // counts score bit-identically to the vector read as a week starting at
  // slot-of-week 0.
  const double score = fleet_.score_counts(i, counted_window(i));
  const double threshold = fleet_.decision_threshold();
  if (score <= threshold) return std::nullopt;

  cooldown_[i] = static_cast<std::uint32_t>(config_.cooldown_slots);
  const std::span<const Kw> window{windows_.data() + base, kWindow};
  const AlertDirection direction = stats::mean(window) > train_mean_[i]
                                       ? AlertDirection::kOverReport
                                       : AlertDirection::kUnderReport;
  ++(direction == AlertDirection::kOverReport ? tally.alerts_over
                                              : tally.alerts_under);
  return AlertEvent{i, ids_[i], reading.slot, score, threshold, direction};
}

std::optional<AlertEvent> OnlineMonitor::ingest(std::size_t consumer_index,
                                                SlotIndex slot, Kw reading) {
  return ingest(Reading{consumer_index, slot, reading, /*missing=*/false});
}

std::optional<AlertEvent> OnlineMonitor::ingest(const Reading& reading) {
  obs::TraceSpan span("monitor.ingest", "monitor");
  require(fitted_, "OnlineMonitor: fit() not called");
  require(reading.consumer_index < consumer_count(),
          "OnlineMonitor: consumer index out of range");
  std::optional<AlertEvent> event;
  Tally tally;
  {
    std::lock_guard<std::mutex> lock(
        shard_locks_[shard_of(reading.consumer_index, shard_count_)]);
    event = apply(reading, tally);
  }
  flush(tally);
  if (event) {
    std::lock_guard<std::mutex> lock(alerts_mutex_);
    alerts_.push_back(*event);
    emit_alert(*event);
  }
  return event;
}

std::vector<AlertEvent> OnlineMonitor::ingest_batch(
    std::span<const Reading> readings) {
  obs::TraceSpan span("monitor.ingest_batch", "monitor");
  require(fitted_, "OnlineMonitor: fit() not called");
  for (const auto& r : readings) {  // validate before mutating any state
    require(r.consumer_index < consumer_count(),
            "OnlineMonitor: consumer index out of range");
  }
  obs::ScopedTimer timer(*batch_seconds_);

  // Bucket the batch by shard, preserving arrival order inside each bucket
  // (stable bucketing, so per-consumer order == batch order).  Shards own
  // disjoint consumer state and proceed in parallel under their own lock;
  // the (batch position -> alert) results are then merged back into arrival
  // order, so the returned alerts, alerts(), the counters and the emitted
  // events are byte-identical to a reading-by-reading ingest() replay for
  // ANY shard count x thread count.
  std::vector<std::vector<std::size_t>> by_shard(shard_count_);
  for (auto& bucket : by_shard) {
    bucket.reserve(readings.size() / shard_count_ + 1);
  }
  for (std::size_t r = 0; r < readings.size(); ++r) {
    by_shard[shard_of(readings[r].consumer_index, shard_count_)].push_back(r);
  }

  std::vector<std::optional<AlertEvent>> raised(readings.size());
  parallel_for(
      shard_count_,
      [&](std::size_t s) {
        if (by_shard[s].empty()) return;
        // Per-shard health: the lock-wait histogram times only the
        // acquisition (contention, not work); the depth gauges cover the
        // bucket this delivery parked on the shard.  One histogram
        // observation and three gauge stores per shard per batch - the
        // per-reading loop below stays untouched, and its counters land in
        // one tally flush per shard.
        const std::size_t m = s % shard_pending_.size();
        const std::int64_t depth =
            static_cast<std::int64_t>(by_shard[s].size());
        shard_pending_[m]->set(depth);
        shard_highwater_[m]->update_max(depth);
        obs::ScopedTimer wait(*shard_lock_wait_[m]);
        std::lock_guard<std::mutex> lock(shard_locks_[s]);
        wait.stop();
        Tally tally;
        for (const std::size_t r : by_shard[s]) {
          raised[r] = apply(readings[r], tally);
        }
        flush(tally);
        shard_applied_[s] += by_shard[s].size();
        shard_pending_[m]->set(0);
      },
      config_.threads);

  // Shard-imbalance gauge: max over mean cumulative per-shard load, x1000
  // (1000 = perfectly balanced).  Reads happen after the parallel_for
  // barrier, so the plain-vector accumulators are quiescent here.
  std::uint64_t total_applied = 0;
  std::uint64_t max_applied = 0;
  for (const std::uint64_t a : shard_applied_) {
    total_applied += a;
    max_applied = std::max(max_applied, a);
  }
  if (total_applied > 0) {
    const double mean = static_cast<double>(total_applied) /
                        static_cast<double>(shard_count_);
    shard_imbalance_->set(
        std::llround(1000.0 * static_cast<double>(max_applied) / mean));
  }

  std::vector<AlertEvent> events;
  for (auto& event : raised) {
    if (event) events.push_back(*event);
  }
  {
    std::lock_guard<std::mutex> lock(alerts_mutex_);
    // Serial emission in merged arrival order: the event log matches a
    // reading-by-reading ingest() replay byte for byte.
    for (const AlertEvent& event : events) emit_alert(event);
    alerts_.insert(alerts_.end(), events.begin(), events.end());
  }
  return events;
}

void OnlineMonitor::save(std::ostream& out) const {
  obs::TraceSpan span("monitor.save", "monitor");
  require(fitted_, "OnlineMonitor::save: fit() not called");
  persist::Encoder enc;
  enc.u64(config_.stride);
  enc.u64(config_.cooldown_slots);
  enc.f64(config_.max_missing_fraction);
  fleet_.save(enc);

  // Per-consumer counters, one bulk array per field (missing_in_window_ is
  // a derived popcount, recomputed on restore).
  enc.u32_array(ids_);
  enc.u32_array(since_score_);
  enc.u32_array(cooldown_);
  enc.f64_array(train_mean_);

  enc.u64(alerts_.size());
  for (const AlertEvent& a : alerts_) {
    enc.u64(a.consumer_index);
    enc.u32(a.consumer_id);
    enc.u64(a.slot);
    enc.f64(a.score);
    enc.f64(a.threshold);
    enc.u8(static_cast<std::uint8_t>(a.direction));
  }
  // Feeder-hierarchy block, behind a presence flag: a monitor fitted
  // without a topology writes (and restores) hierarchy-free state.
  enc.u8(feeder_ != nullptr ? 1 : 0);
  if (feeder_ != nullptr) feeder_->save_state(enc);

  // Three sections: the small state, then the two bulk arrays written
  // straight from the live fleet state.
  persist::CheckpointWriter writer(out, persist::Section::kOnlineMonitor);
  writer.write(enc.bytes());
  writer.write(std::span<const double>(windows_));
  writer.write(std::span<const std::uint64_t>(missing_));
}

void OnlineMonitor::restore(std::istream& in) {
  obs::TraceSpan span("monitor.restore", "monitor");
  persist::CheckpointReader reader(in, persist::Section::kOnlineMonitor);
  const std::string state = reader.read();
  persist::Decoder dec(state);

  OnlineMonitorConfig config = config_;  // threads/metrics/shards survive
  config.stride = dec.count("stride", 1u << 20);
  config.cooldown_slots = dec.count("cooldown slots", 1u << 20);
  config.max_missing_fraction = dec.f64();
  if (config.stride == 0) throw DataError("checkpoint: monitor stride is 0");
  if (!(config.max_missing_fraction >= 0.0 &&
        config.max_missing_fraction <= 1.0)) {
    throw DataError("checkpoint: monitor max_missing_fraction out of [0,1]");
  }

  DetectorFleet fleet = DetectorFleet::restore(dec, config_.threads);
  const std::size_t count = fleet.size();
  std::vector<meter::ConsumerId> ids = dec.u32_array("monitor ids", count);
  std::vector<std::uint32_t> since_score =
      dec.u32_array("monitor stride counters", count);
  std::vector<std::uint32_t> cooldown =
      dec.u32_array("monitor cooldown counters", count);
  std::vector<double> train_mean =
      dec.f64_array("monitor training means", count);
  persist::require_finite("monitor training means", train_mean);

  const std::size_t alert_count = dec.count("alerts", 100u << 20);
  dec.require_fits("alerts", alert_count, kAlertBytes);
  std::vector<AlertEvent> alerts;
  alerts.reserve(alert_count);
  for (std::size_t i = 0; i < alert_count; ++i) {
    AlertEvent a;
    a.consumer_index = dec.count("alert consumer", 100u << 20);
    if (a.consumer_index >= count) {
      throw DataError("checkpoint: alert consumer index out of range");
    }
    a.consumer_id = dec.u32();
    a.slot = static_cast<SlotIndex>(dec.u64());
    a.score = dec.f64();
    a.threshold = dec.f64();
    const std::uint8_t direction = dec.u8();
    if (direction > static_cast<std::uint8_t>(AlertDirection::kOverReport)) {
      throw DataError("checkpoint: bad alert direction");
    }
    a.direction = static_cast<AlertDirection>(direction);
    alerts.push_back(a);
  }
  std::unique_ptr<hierarchy::FeederMonitor> feeder;
  const std::uint8_t has_feeder = dec.u8();
  if (has_feeder > 1) throw DataError("checkpoint: bad feeder flag");
  if (has_feeder == 1) {
    if (config_.topology == nullptr) {
      throw DataError(
          "checkpoint: feeder-hierarchy state present but the monitor has "
          "no configured topology");
    }
    feeder = std::make_unique<hierarchy::FeederMonitor>(
        *config_.topology, resolved_feeder_config());
    feeder->restore_state(dec);
    config.feeder.detector = feeder->config().detector;
    config.feeder.detector_options = feeder->config().detector_options;
  }
  dec.require_exhausted("monitor state");

  // The bulk sections, read straight into place; their lengths must match
  // the decoded consumer count.
  std::vector<Kw> windows;
  reader.read(windows, count * kWindow);
  std::vector<std::uint64_t> missing;
  reader.read(missing, count * kMaskWords);
  std::vector<std::uint32_t> missing_in_window(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* words = missing.data() + i * kMaskWords;
    if ((words[kMaskWords - 1] & kMaskPadding) != 0) {
      throw DataError("checkpoint: monitor missing mask sets a padding bit");
    }
    std::uint32_t gaps = 0;
    for (std::size_t w = 0; w < kMaskWords; ++w) {
      gaps += static_cast<std::uint32_t>(std::popcount(words[w]));
    }
    missing_in_window[i] = gaps;
  }

  // Everything decoded cleanly; commit the restore atomically.
  config.detector = fleet.family();
  config.detector_options = fleet.options();
  config_ = std::move(config);
  fleet_ = std::move(fleet);
  ids_ = std::move(ids);
  windows_ = std::move(windows);
  missing_ = std::move(missing);
  missing_in_window_ = std::move(missing_in_window);
  since_score_ = std::move(since_score);
  cooldown_ = std::move(cooldown);
  train_mean_ = std::move(train_mean);
  init_shards(count);
  reset_counted_windows();
  // Drift is measured against the population distribution at service start:
  // a restored monitor baselines on its restored sliding windows, exactly as
  // a freshly fitted one baselines on the primed training windows.
  rebuild_health_baseline();
  alerts_ = std::move(alerts);
  feeder_ = std::move(feeder);
  fitted_ = true;
  consumers_restored_->add(count);
  events_->emit("model_restored",
                obs::EventFields{}
                    .str("component", "monitor")
                    .u64("consumers", count)
                    .u64("alerts_restored", alert_count));
}

std::span<const Kw> OnlineMonitor::window(std::size_t consumer_index) const {
  require(fitted_, "OnlineMonitor: fit() not called");
  require(consumer_index < consumer_count(),
          "OnlineMonitor: consumer index out of range");
  return {windows_.data() + consumer_index * kWindow, kWindow};
}

}  // namespace fdeta::core
