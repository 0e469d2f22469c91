#include "core/online_monitor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "common/error.h"
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

// Population-health histogram: linear reading-magnitude bins over the fleet's
// primed sliding windows.  32 bins keeps the KLD estimate stable at modest
// window sizes while staying cheap to drain per refresh.
constexpr std::size_t kHealthBins = 32;

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
  std::uint64_t implausible = 0;
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
  readings_implausible_ = &registry.counter("monitor.readings_implausible");
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
  drift_gauge_ = &registry.gauge("monitor.population_drift_milli_bits");
  burst_gauge_ = &registry.gauge("monitor.alert_burst_milli");
  registry_ = &registry;
  events_ = config_.events != nullptr ? config_.events
                                      : &obs::default_event_log();
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

std::unique_ptr<hierarchy::FeederMonitor> OnlineMonitor::make_feeder() const {
  return std::make_unique<hierarchy::FeederMonitor>(
      *config_.topology, hierarchy::FeederConfig{.threads = config_.threads,
                                                 .metrics = config_.metrics,
                                                 .events = config_.events});
}

void OnlineMonitor::fit(const meter::Dataset& history,
                        const meter::TrainTestSplit& split) {
  obs::TraceSpan span("monitor.fit", "monitor");
  obs::ScopedTimer timer(*fit_seconds_);
  serve(nullptr, history.consumer_count(), meter::series_source(history),
        split);
}

void OnlineMonitor::fit_streaming(
    std::size_t count,
    const std::function<meter::ConsumerSeries(std::size_t)>& source,
    const meter::TrainTestSplit& split) {
  obs::TraceSpan span("monitor.fit_streaming", "monitor");
  obs::ScopedTimer timer(*fit_seconds_);
  require(static_cast<bool>(source), "OnlineMonitor: null series source");
  serve(nullptr, count,
        [&](std::size_t i, meter::ConsumerSeries& scratch)
            -> const meter::ConsumerSeries& { return scratch = source(i); },
        split);
}

void OnlineMonitor::start(std::shared_ptr<const ConsumerModel> model,
                          const meter::Dataset& history) {
  obs::TraceSpan span("monitor.start", "monitor");
  require(model != nullptr && model->fleet.size() == history.consumer_count(),
          "OnlineMonitor::start: the model does not match the history");
  model->require_consumers(history, "OnlineMonitor::start: history");
  const meter::TrainTestSplit split{.train_weeks = model->fleet.weeks(),
                                    .test_weeks = 0};
  serve(std::move(model), history.consumer_count(),
        meter::series_source(history), split);
}

void OnlineMonitor::serve(std::shared_ptr<const ConsumerModel> model,
                          std::size_t count, const meter::SeriesSource& source,
                          const meter::TrainTestSplit& split) {
  fitted_ = false;
  model_.reset();
  alerts_.clear();
  feeder_.reset();
  windows_.assign(count * kWindow, 0.0);
  missing_.assign(count * kMaskWords, 0);
  missing_in_window_.assign(count, 0);
  since_score_.assign(count, 0);
  cooldown_.assign(count, 0);
  // Prime each window with the last (trusted) training week.  Training
  // spans start at a week boundary, so the primed vector is slot-of-week
  // aligned.
  const auto prime = [&](std::size_t i, const meter::ConsumerSeries& series) {
    const auto train = split.train(series);
    std::copy(train.end() - kWindow, train.end(),
              windows_.begin() + static_cast<std::ptrdiff_t>(i * kWindow));
  };
  if (model == nullptr) {  // the model's one pass hands each series over
    model = ConsumerModel::fit(config_.detector, config_.detector_options,
                               split, count, source, config_.threads, prime);
    consumers_fitted_->add(count);
  } else {
    parallel_for(
        count,
        [&](std::size_t i) { meter::ConsumerSeries s; prime(i, source(i, s)); },
        config_.threads);
  }
  if (config_.topology != nullptr) {
    // A second pass over the source: the feeder layer's integer sums give
    // the same state whatever order the series arrive in.
    feeder_ = make_feeder();
    feeder_->fit(count, source, split);
  }
  open(std::move(model));
}

void OnlineMonitor::open(std::shared_ptr<const ConsumerModel> model) {
  config_.detector = model->fleet.family();
  config_.detector_options = model->fleet.options();
  model_ = std::move(model);
  const std::size_t count = model_->fleet.size();
  shards_ = ShardLayer(config_.shards, count, parallel_width(config_.threads),
                       *registry_, "monitor");
  count_words_ = model_->fleet.count_words();
  counts_.assign(count * count_words_, 0);
  counted_.assign(count, 0);
  // Drift is measured against the population distribution at service start:
  // the primed training windows, or a restored monitor's restored ones.
  rebuild_health_baseline();
  fitted_ = true;
}

hierarchy::FeederReport OnlineMonitor::evaluate_feeders(SlotIndex slot) {
  require(fitted_, "OnlineMonitor: fit() not called");
  require(feeder_ != nullptr,
          "OnlineMonitor: evaluate_feeders requires a configured topology");
  // Consumers still in their alert cooldown were individually flagged
  // recently; the hierarchy layer only localizes the sub-threshold rest.
  // Windows and cooldowns are layout-invariant state, so this mask - and
  // the whole report - is byte-identical for any shard x thread layout.
  std::vector<unsigned char> flagged(consumer_count(), 0);
  for (std::size_t i = 0; i < flagged.size(); ++i) {
    flagged[i] = cooldown_[i] > 0 ? 1 : 0;
  }
  return feeder_->evaluate_windows(
      [this](std::size_t i) {
        return std::span<const Kw>(windows_.data() + i * kWindow, kWindow);
      },
      model_->train_mean, slot, flagged);
}

std::span<const std::uint16_t> OnlineMonitor::counted_window(std::size_t i) {
  const std::span<std::uint16_t> counts{counts_.data() + i * count_words_,
                                        count_words_};
  if (counted_[i] == 0) {
    // windows_ index s holds slot-of-week s: a week from slot-of-week 0.
    model_->fleet.count_week(i, {windows_.data() + i * kWindow, kWindow}, 0,
                               counts);
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
  add(readings_implausible_, tally.implausible);
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
  const DetectorFleet& fleet = model_->fleet;
  const std::size_t i = reading.consumer_index;
  const std::size_t base = i * kWindow;
  const std::size_t position = static_cast<std::size_t>(reading.slot) % kWindow;
  std::uint64_t& mask = missing_[i * kMaskWords + position / 64];
  const std::uint64_t bit = std::uint64_t{1} << (position % 64);

  // A reading that is not finite or exceeds kMaxPlausibleKw is a broken
  // meter, not a demand (the head-end's quarantine rule, applied here for
  // callers that ingest directly): it is counted and then treated like a
  // dropped one, so it never reaches a window, a score or a feeder sum.
  const bool implausible =
      !reading.missing && !(std::abs(reading.kw) <= kMaxPlausibleKw);
  if (reading.missing || implausible) {
    // A dropped report carries no information: keep the last slot-aligned
    // value (do NOT impute 0 - a zero week is exactly what an under-report
    // attack looks like) and account for the gap.  The slot position goes
    // stale, which feeds the coverage gate below.  The stride and cooldown
    // clocks advance on OBSERVED readings only - an outage must not eat a
    // consumer's cooldown or stride budget while nothing is being measured.
    ++(implausible ? tally.implausible : tally.missing);
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
    fleet.count_reading(i, counts, position, stored, -1);
    fleet.count_reading(i, counts, position, reading.kw, +1);
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
  const double score = fleet.score_counts(i, counted_window(i));
  const double threshold = fleet.decision_threshold();
  if (score <= threshold) return std::nullopt;

  cooldown_[i] = static_cast<std::uint32_t>(config_.cooldown_slots);
  const std::span<const Kw> window{windows_.data() + base, kWindow};
  const AlertDirection direction = stats::mean(window) > model_->train_mean[i]
                                       ? AlertDirection::kOverReport
                                       : AlertDirection::kUnderReport;
  ++(direction == AlertDirection::kOverReport ? tally.alerts_over
                                              : tally.alerts_under);
  return AlertEvent{i, model_->ids[i], reading.slot, score, threshold,
                    direction};
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
    std::lock_guard<std::mutex> lock(shards_.lock_of(reading.consumer_index));
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

  // Shards own disjoint consumer state and run in parallel on the pool,
  // each under its own lock, applying one consumer's readings in batch
  // order; the (batch position -> alert) results are then merged back into
  // arrival order, so the returned alerts, alerts(), the counters and the
  // emitted events are byte-identical to a reading-by-reading ingest()
  // replay for ANY shard count x thread count.  Each shard counts its
  // readings' fates in one tally, flushed once per shard per batch.
  std::vector<std::optional<AlertEvent>> raised(readings.size());
  shards_.apply_batch(
      readings,
      [&](std::span<const std::size_t> positions) {
        Tally tally;
        for (const std::size_t r : positions) {
          raised[r] = apply(readings[r], tally);
        }
        flush(tally);
      },
      config_.threads);

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

  // Per-consumer counters, one bulk array per field (missing_in_window_ is
  // a derived popcount, recomputed on restore).
  enc.u32_array(since_score_);
  enc.u32_array(cooldown_);

  // Feeder-hierarchy block, behind a presence flag: a monitor fitted
  // without a topology writes (and restores) hierarchy-free state.
  enc.u8(feeder_ != nullptr ? 1 : 0);
  if (feeder_ != nullptr) feeder_->save_state(enc);

  // Four sections: the consumer model, the serving state, then the two
  // bulk arrays written straight from the live fleet state.
  persist::CheckpointWriter writer(out, persist::Section::kOnlineMonitor);
  model_->save(writer);
  writer.write(enc.bytes());
  writer.write(std::span<const double>(windows_));
  writer.write(std::span<const std::uint64_t>(missing_));
}

void OnlineMonitor::restore(std::istream& in) {
  obs::TraceSpan span("monitor.restore", "monitor");
  persist::CheckpointReader reader(in, persist::Section::kOnlineMonitor);
  std::shared_ptr<const ConsumerModel> model =
      ConsumerModel::restore(reader, config_.threads);
  const std::size_t count = model->fleet.size();
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

  std::vector<std::uint32_t> since_score =
      dec.u32_array("monitor stride counters", count);
  std::vector<std::uint32_t> cooldown =
      dec.u32_array("monitor cooldown counters", count);

  std::unique_ptr<hierarchy::FeederMonitor> feeder;
  const std::uint8_t has_feeder = dec.u8();
  if (has_feeder > 1) throw DataError("checkpoint: bad feeder flag");
  if (has_feeder == 1) {
    if (config_.topology == nullptr) {
      throw DataError(
          "checkpoint: feeder-hierarchy state present but the monitor has "
          "no configured topology");
    }
    if (config_.topology->consumer_count() != count) {
      throw DataError("checkpoint: model consumer count does not match the "
                      "monitor's topology");
    }
    feeder = make_feeder();
    feeder->restore_state(dec);
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
  config_ = std::move(config);
  windows_ = std::move(windows);
  missing_ = std::move(missing);
  missing_in_window_ = std::move(missing_in_window);
  since_score_ = std::move(since_score);
  cooldown_ = std::move(cooldown);
  alerts_.clear();
  feeder_ = std::move(feeder);
  open(std::move(model));
  consumers_restored_->add(count);
  events_->emit("model_restored",
                obs::EventFields{}
                    .str("component", "monitor")
                    .u64("consumers", count));
}

std::span<const Kw> OnlineMonitor::window(std::size_t consumer_index) const {
  require(fitted_, "OnlineMonitor: fit() not called");
  require(consumer_index < consumer_count(),
          "OnlineMonitor: consumer index out of range");
  return {windows_.data() + consumer_index * kWindow, kWindow};
}

}  // namespace fdeta::core
