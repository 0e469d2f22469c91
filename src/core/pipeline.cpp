#include "core/pipeline.h"

#include <cstdio>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/thread_pool.h"
#include "meter/weekly_stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/binary_io.h"
#include "persist/checkpoint.h"
#include "stats/descriptive.h"
#include "stats/quantile.h"

namespace fdeta::core {

namespace {

/// The alert's reporting direction as forensics vocabulary: a suspected
/// attacker under-reports their own meter, a suspected victim's meter
/// over-reports to absorb a neighbour's theft (Propositions 1 and 2).
const char* alert_direction(VerdictStatus status) {
  switch (status) {
    case VerdictStatus::kSuspectedAttacker: return "under-report";
    case VerdictStatus::kSuspectedVictim: return "over-report";
    default: return "unclear";
  }
}

}  // namespace

const char* to_string(VerdictStatus status) {
  switch (status) {
    case VerdictStatus::kNormal: return "normal";
    case VerdictStatus::kSuspectedAttacker: return "suspected attacker";
    case VerdictStatus::kSuspectedVictim: return "suspected victim";
    case VerdictStatus::kSuspectedAnomaly: return "suspected anomaly";
    case VerdictStatus::kExcused: return "excused";
    case VerdictStatus::kInsufficientData: return "insufficient data";
  }
  return "?";
}

std::vector<meter::ConsumerId> PipelineReport::suspected_attackers() const {
  std::vector<meter::ConsumerId> out;
  for (const auto& v : verdicts) {
    if (v.status == VerdictStatus::kSuspectedAttacker) out.push_back(v.id);
  }
  return out;
}

std::vector<meter::ConsumerId> PipelineReport::suspected_victims() const {
  std::vector<meter::ConsumerId> out;
  for (const auto& v : verdicts) {
    if (v.status == VerdictStatus::kSuspectedVictim) out.push_back(v.id);
  }
  return out;
}

FdetaPipeline::FdetaPipeline(PipelineConfig config) : config_(config) {
  obs::MetricsRegistry& registry = config_.metrics != nullptr
                                       ? *config_.metrics
                                       : obs::default_registry();
  consumers_fitted_ = &registry.counter("pipeline.consumers_fitted");
  consumers_restored_ = &registry.counter("pipeline.consumers_restored");
  thresholds_recomputed_ = &registry.counter("pipeline.thresholds_recomputed");
  weeks_scored_ = &registry.counter("pipeline.weeks_scored");
  verdicts_ = &registry.counter("pipeline.verdicts");
  verdict_normal_ = &registry.counter("pipeline.verdict_normal");
  verdict_attacker_ = &registry.counter("pipeline.verdict_attacker");
  verdict_victim_ = &registry.counter("pipeline.verdict_victim");
  verdict_anomaly_ = &registry.counter("pipeline.verdict_anomaly");
  verdict_excused_ = &registry.counter("pipeline.verdict_excused");
  verdict_insufficient_ = &registry.counter("pipeline.verdict_insufficient");
  coverage_missing_slots_ =
      &registry.counter("pipeline.coverage_missing_slots");
  investigations_ = &registry.counter("pipeline.investigations");
  fit_seconds_ = &registry.histogram("pipeline.fit_seconds");
  evaluate_seconds_ = &registry.histogram("pipeline.evaluate_seconds");
  events_ = config_.events != nullptr ? config_.events
                                      : &obs::default_event_log();
}

void FdetaPipeline::fit(const meter::Dataset& actual) {
  obs::TraceSpan span("pipeline.fit", "pipeline");
  obs::ScopedTimer timer(*fit_seconds_);
  fitted_ = false;
  feeder_.reset();  // refitted lazily against the new training data
  const std::size_t count = actual.consumer_count();
  fleet_ = DetectorFleet(config_.detector, config_.detector_options, count,
                         config_.split.train_weeks);
  train_stats_.assign(count, meter::WeeklyStats{});
  // Per-consumer fits are independent; run them on the shared pool.
  parallel_for(
      count,
      [&](std::size_t i) {
        const auto train = config_.split.train(actual.consumer(i));
        fleet_.fit(i, train);
        train_stats_[i] = meter::weekly_stats(train);
      },
      config_.threads);
  fitted_ = true;
  consumers_fitted_->add(count);
  // Each detector fit recomputes its (1-alpha) quantile threshold.
  thresholds_recomputed_->add(count);
}

void FdetaPipeline::save_model(std::ostream& out) const {
  obs::TraceSpan span("pipeline.save_model", "pipeline");
  require(fitted_, "FdetaPipeline::save_model: fit() not called");
  persist::Encoder enc;
  enc.u64(config_.split.train_weeks);
  enc.u64(config_.split.test_weeks);
  enc.f64(config_.direction_margin);
  enc.f64(config_.direction_floor_kw);
  fleet_.save(enc);
  for (const meter::WeeklyStats& stats : train_stats_) {
    meter::save_weekly_stats(stats, enc);
  }
  persist::CheckpointWriter(out, persist::Section::kPipeline)
      .write(enc.bytes());
}

void FdetaPipeline::load_model(std::istream& in) {
  obs::TraceSpan span("pipeline.load_model", "pipeline");
  feeder_.reset();  // refitted lazily against the restored split
  const std::string payload =
      persist::CheckpointReader(in, persist::Section::kPipeline).read();
  persist::Decoder dec(payload);

  PipelineConfig config = config_;  // threads/metrics survive the restore
  config.split.train_weeks = dec.count("train weeks", 1u << 20);
  config.split.test_weeks = dec.count("test weeks", 1u << 20);
  config.direction_margin = dec.f64();
  config.direction_floor_kw = dec.f64();
  DetectorFleet fleet = DetectorFleet::restore(dec, config_.threads);
  const std::size_t count = fleet.size();
  // Every consumer owns at least its weekly-stats block (two empty
  // sequences and four bounds), so this bounds the reservation below.
  dec.require_fits("consumers", count, 6 * sizeof(double));
  std::vector<meter::WeeklyStats> train_stats;
  train_stats.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    train_stats.push_back(meter::load_weekly_stats(dec));
  }
  dec.require_exhausted("pipeline model");

  // All consumers decoded cleanly; commit the restore atomically.
  config.detector = fleet.family();
  config.detector_options = fleet.options();
  config_ = std::move(config);
  fleet_ = std::move(fleet);
  train_stats_ = std::move(train_stats);
  fitted_ = true;
  consumers_restored_->add(count);
  events_->emit("model_restored",
                obs::EventFields{}
                    .str("component", "pipeline")
                    .u64("consumers", count)
                    .u64("train_weeks", config_.split.train_weeks)
                    .u64("bins", config_.detector_options.kld.bins));
}

PipelineReport FdetaPipeline::evaluate_week(
    const meter::Dataset& actual, const meter::Dataset& reported,
    std::size_t week, const EvidenceCalendar& calendar,
    const grid::Topology* topology, const WeekCoverage* coverage) const {
  require(fitted_, "FdetaPipeline: fit() not called");
  if (coverage != nullptr) {
    require(coverage->missing_slots.size() == reported.consumer_count(),
            "FdetaPipeline: coverage consumer count mismatch");
    require(coverage->week_slots > 0,
            "FdetaPipeline: coverage week_slots must be positive");
  }
  require(reported.consumer_count() == fleet_.size(),
          "FdetaPipeline: reported dataset size mismatch");
  require(week < reported.week_count(), "FdetaPipeline: week out of range");
  require(actual.consumer_count() == fleet_.size(),
          "FdetaPipeline: actual dataset size mismatch");
  require(week < actual.week_count(),
          "FdetaPipeline: week out of range in actual dataset");
  obs::TraceSpan span("pipeline.evaluate_week", "pipeline");
  obs::ScopedTimer timer(*evaluate_seconds_);

  PipelineReport report;
  report.verdicts.resize(reported.consumer_count());

  // Steps 2-4 are independent per consumer; KLD scoring is ~microseconds,
  // so schedule in chunks to amortise the work-counter contention.
  parallel_for(
      reported.consumer_count(),
      [&](std::size_t i) {
        const auto& series = reported.consumer(i);
        const auto week_readings = series.week(week);
        const SlotIndex first_slot =
            week * static_cast<std::size_t>(kSlotsPerWeek);

        ConsumerVerdict verdict;
        verdict.id = series.id;
        verdict.kld_threshold = fleet_.decision_threshold();

        // Coverage gate: a week this lossy would be scored on imputed
        // values, and imputation looks exactly like under-reporting.
        // Refuse to judge instead.
        if (coverage != nullptr) {
          verdict.missing_slots = coverage->missing_slots[i];
          const double missing_fraction =
              static_cast<double>(verdict.missing_slots) /
              static_cast<double>(coverage->week_slots);
          if (missing_fraction > config_.max_missing_fraction) {
            verdict.status = VerdictStatus::kInsufficientData;
            report.verdicts[i] = std::move(verdict);
            return;
          }
        }

        verdict.kld_score =
            fleet_.score_week(i, week_readings, first_slot);  // step 2

        if (verdict.kld_score > verdict.kld_threshold) {
          // Step 3: classify the anomaly direction by the week's mean
          // relative to the training weekly-mean range.
          // Direction is judged against the bulk of the training weekly means
          // (upper/lower quartile), not the extremes: a flagged week whose
          // mean sits in the top quartile reads as over-reporting (victim),
          // bottom quartile as under-reporting (attacker).
          const double m = stats::mean(week_readings);
          const auto& ts = train_stats_[i];
          const double q75 = stats::quantile(ts.means, 0.75);
          const double q25 = stats::quantile(ts.means, 0.25);
          if (q25 < config_.direction_floor_kw ||
              q75 < config_.direction_floor_kw) {
            // Quartile means ~0 (vacant property, dead meter): the lower
            // band collapses to 0 and no week could ever read as
            // under-reporting, so direction is indeterminate.
            verdict.status = VerdictStatus::kSuspectedAnomaly;
          } else {
            const double hi = q75 * (1.0 + config_.direction_margin);
            const double lo = q25 * (1.0 - config_.direction_margin);
            if (m > hi) {
              verdict.status = VerdictStatus::kSuspectedVictim;
            } else if (m < lo) {
              verdict.status = VerdictStatus::kSuspectedAttacker;
            } else {
              verdict.status = VerdictStatus::kSuspectedAnomaly;
            }
          }

          // Step 4: external evidence can excuse the anomaly.
          if (auto excuse = calendar.excuse(week)) {
            verdict.status = VerdictStatus::kExcused;
            verdict.excuse = std::move(excuse);
          }

          if (config_.explain) {
            verdict.explanation =
                fleet_.explain_week(i, week_readings, first_slot);
          }
        }
        report.verdicts[i] = std::move(verdict);
      },
      config_.threads, /*grain=*/16);

  // Tally verdicts serially after the parallel sweep: one add per status,
  // and the totals stay byte-identical between serial and pooled runs.
  weeks_scored_->add();
  verdicts_->add(report.verdicts.size());
  for (const auto& v : report.verdicts) {
    switch (v.status) {
      case VerdictStatus::kNormal: verdict_normal_->add(); break;
      case VerdictStatus::kSuspectedAttacker: verdict_attacker_->add(); break;
      case VerdictStatus::kSuspectedVictim: verdict_victim_->add(); break;
      case VerdictStatus::kSuspectedAnomaly: verdict_anomaly_->add(); break;
      case VerdictStatus::kExcused: verdict_excused_->add(); break;
      case VerdictStatus::kInsufficientData:
        verdict_insufficient_->add();
        break;
    }
  }
  if (coverage != nullptr) {
    std::uint64_t total_missing = 0;
    for (const std::uint32_t m : coverage->missing_slots) total_missing += m;
    coverage_missing_slots_->add(total_missing);
  }

  // Forensic events, emitted serially in consumer index order so a
  // fixed-seed run produces a byte-identical log regardless of `threads`.
  if (events_->enabled()) {
    for (const auto& v : report.verdicts) {
      if (v.status == VerdictStatus::kNormal) continue;
      if (v.status == VerdictStatus::kInsufficientData) {
        // Excused for lack of evidence, not judged innocent: the forensic
        // log records why no score exists for this consumer-week.
        events_->emit("alert_excused",
                      obs::EventFields{}
                          .str("source", "pipeline")
                          .u64("consumer", v.id)
                          .u64("week", week)
                          .str("reason", "insufficient_coverage")
                          .u64("missing_slots", v.missing_slots)
                          .u64("week_slots",
                               coverage != nullptr ? coverage->week_slots : 0));
        continue;
      }
      if (v.status == VerdictStatus::kExcused) {
        obs::EventFields fields;
        fields.str("source", "pipeline")
            .u64("consumer", v.id)
            .u64("week", week)
            .f64("k_a", v.kld_score)
            .f64("threshold", v.kld_threshold);
        if (v.excuse.has_value()) {
          fields.str("evidence", to_string(v.excuse->kind))
              .str("description", v.excuse->description);
        }
        events_->emit("alert_excused", fields);
        continue;
      }
      obs::EventFields fields;
      fields.str("source", "pipeline")
          .u64("consumer", v.id)
          .u64("week", week)
          .f64("k_a", v.kld_score)
          .f64("threshold", v.kld_threshold)
          .str("direction", alert_direction(v.status));
      if (v.explanation.has_value()) {
        // Nested array of the dominant bins: [bin, bits] pairs for every
        // bin contributing non-zero divergence.
        std::string contrib = "[";
        bool first = true;
        for (const auto& c : v.explanation->bins) {
          if (c.bits == 0.0) continue;
          if (!first) contrib += ',';
          char buf[96];
          std::snprintf(buf, sizeof(buf), "[%zu,%.17g]", c.bin, c.bits);
          contrib += buf;
          first = false;
        }
        contrib += ']';
        fields.raw("bin_bits", contrib);
      }
      events_->emit("alert_raised", fields);
    }
  }

  // Step 5: systematic investigation via the topology's balance checks,
  // using the attacked week's average demands.
  if (topology != nullptr) {
    require(topology->consumer_count() == reported.consumer_count(),
            "FdetaPipeline: topology consumer count mismatch");
    std::vector<Kw> actual_avg(reported.consumer_count());
    std::vector<Kw> reported_avg(reported.consumer_count());
    parallel_for(
        reported.consumer_count(),
        [&](std::size_t i) {
          actual_avg[i] = stats::mean(actual.consumer(i).week(week));
          reported_avg[i] = stats::mean(reported.consumer(i).week(week));
        },
        config_.threads, /*grain=*/32);
    report.investigation =
        grid::investigate_case2(*topology, actual_avg, reported_avg,
                                /*tolerance_kw=*/1e-6, events_);
    investigations_->add();
  }

  // Feeder-hierarchy layer, strictly AFTER the per-consumer events and the
  // investigation trail: a hierarchy-enabled run's event log is the
  // hierarchy-free log plus appended feeder events, never a reordering.
  if (config_.hierarchy && topology != nullptr) {
    ensure_feeder(*topology, actual);
    std::vector<unsigned char> flagged(report.verdicts.size(), 0);
    for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
      const VerdictStatus status = report.verdicts[i].status;
      // Anomalous at the per-consumer layer (excused or not): already
      // localized individually, so excluded from collusion groups.
      flagged[i] = (status != VerdictStatus::kNormal &&
                    status != VerdictStatus::kInsufficientData)
                       ? 1
                       : 0;
    }
    // Balance mode: the trusted `actual` dataset stands in for the feeder
    // balance meters, so clean fleets have exactly-zero physical residuals.
    report.feeder = feeder_->evaluate_week(actual, reported, week, flagged);
  }
  return report;
}

void FdetaPipeline::ensure_feeder(const grid::Topology& topology,
                                  const meter::Dataset& actual) const {
  if (feeder_ != nullptr) {
    require(&topology == &feeder_->topology(),
            "FdetaPipeline: topology changed between hierarchy evaluations");
    return;
  }
  hierarchy::FeederConfig cfg = config_.feeder;
  if (cfg.threads == 0) cfg.threads = config_.threads;
  if (cfg.metrics == nullptr) cfg.metrics = config_.metrics;
  if (cfg.events == nullptr) cfg.events = config_.events;
  feeder_ = std::make_unique<hierarchy::FeederMonitor>(topology, cfg);
  feeder_->fit(actual, config_.split);
}

}  // namespace fdeta::core
