// `stream`: the control-center loop, one half-hour slot at a time.
//
// Each slot goes MeterNetwork (seeded faults + NACK retransmit) -> HeadEnd
// -> a Reading batch -> OnlineMonitor::ingest_batch, with evaluate_feeders
// on every week-closing slot and the event log on.  One slot is in flight
// at a time (a closed loop); latency runs from the slot's transmit call to
// the return of its last verdict call.  The ami and monitor layers do nearly
// all the work; persist and pipeline do none.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <tuple>

#include "ami/faults.h"
#include "ami/network.h"
#include "common/thread_pool.h"
#include "core/online_monitor.h"
#include "datagen/generator.h"
#include "harness.h"
#include "obs/event_log.h"

namespace e2e {
namespace {

namespace ami = fdeta::ami;
namespace core = fdeta::core;
namespace meter = fdeta::meter;
namespace obs = fdeta::obs;
using fdeta::SlotIndex;
constexpr std::size_t kWeek = fdeta::kSlotsPerWeek;

struct Params {
  std::size_t consumers;
  std::size_t train_weeks;
  std::size_t horizon_weeks;  ///< test span the timed loop may walk
  std::size_t warmup_slots;
  std::size_t min_slots;      ///< timed slots, even past --seconds
  std::size_t sample;         ///< consumers replayed by the reference
};

Params params(bool tiny) {
  if (tiny) return {240, 4, 2, 8, 40, 16};
  return {4000, 6, 7, 24, 1000, 64};
}

ami::FaultPlanConfig fault_config(std::uint64_t seed) {
  ami::FaultPlanConfig c;
  c.drop_rate = 0.02;
  c.duplicate_rate = 0.01;
  c.reorder_rate = 0.02;
  c.max_delay_slots = 4;
  c.corrupt_rate = 0.001;
  c.seed = seed * 0x9E3779B97F4A7C15ull + 1;
  return c;
}

constexpr ami::RetransmitPolicy kRetransmit{2, 1};

/// The fleet and its ground truth.  Never moved: networks keep a pointer to
/// `test`.
struct Plant {
  Plant(const Params& p, std::uint64_t seed)
      : fleet(fdeta::datagen::scaled_config(
            p.consumers, p.train_weeks + p.horizon_weeks, seed)),
        topology(feeder_tree(p.consumers)),
        split{p.train_weeks, p.horizon_weeks},
        base(p.train_weeks * kWeek) {}

  fdeta::datagen::StreamingFleet fleet;
  fdeta::grid::Topology topology;
  meter::TrainTestSplit split;
  SlotIndex base;      ///< absolute slot of test slot 0
  meter::Dataset test; ///< ground truth over the horizon, test slot 0 first
};

/// The serving side: monitor, head-end and network with their sinks.
struct Line {
  obs::MetricsRegistry registry;
  obs::EventLog events;
  std::unique_ptr<core::OnlineMonitor> monitor;
  std::unique_ptr<ami::HeadEnd> head_end;
  std::unique_ptr<ami::MeterNetwork> network;
  std::vector<core::Reading> batch;
  std::size_t nodes_scored = 0;
};

core::OnlineMonitorConfig monitor_config(const Plant& plant, Line& line,
                                         std::size_t threads) {
  core::OnlineMonitorConfig c;
  c.threads = threads;
  c.topology = &plant.topology;
  c.metrics = &line.registry;
  c.events = &line.events;
  return c;
}

void attach_plane(const Plant& plant, Line& line, std::uint64_t seed) {
  line.events.enable();
  line.head_end = std::make_unique<ami::HeadEnd>(
      plant.test.consumer_count(), plant.test.slot_count(), &line.registry);
  line.network = std::make_unique<ami::MeterNetwork>(
      plant.test, &line.registry, &line.events);
  line.network->set_fault_plan(ami::FaultPlan(fault_config(seed)));
  line.network->set_retransmit(kRetransmit);
  line.batch.resize(plant.test.consumer_count());
}

/// One slot end to end: transmit, read the slot back out of the head-end,
/// ingest it, and score the feeders when the slot closes a week.
void run_slot(const Plant& plant, Line& line, SlotIndex t, SpanLog& spans,
              std::int64_t op) {
  Scope root(spans, "op.slot", op);
  {
    Scope s(spans, "ami.transmit");
    line.network->transmit(*line.head_end, t, t + 1);
  }
  const SlotIndex slot = plant.base + t;
  {
    Scope s(spans, "ami.readout");
    const ami::HeadEnd& he = *line.head_end;
    for (std::size_t c = 0; c < line.batch.size(); ++c) {
      const bool has = he.has_reading(c, t);
      line.batch[c] = core::Reading{c, slot, has ? he.reading(c, t) : 0.0,
                                    !has};
    }
  }
  {
    Scope s(spans, "monitor.ingest_batch");
    line.monitor->ingest_batch(line.batch);
  }
  if ((slot + 1) % kWeek == 0) {
    Scope s(spans, "hierarchy.evaluate_feeders");
    line.nodes_scored += line.monitor->evaluate_feeders(slot).nodes.size();
  }
}

struct Setup {
  std::unique_ptr<Plant> plant;
  std::unique_ptr<Line> line;
  double datagen_busy_s = 0.0;
  double datagen_readings = 0.0;
  double fit_s = 0.0;
};

/// Datagen, fit and warm-up.  The warm-up slots run through the full loop
/// (they are replayed by the reference check like every other slot).
Setup set_up(const Params& p, const Options& o,
             std::vector<std::size_t>& sample,
             std::vector<core::Reading>& sample_log) {
  Setup s;
  s.plant = std::make_unique<Plant>(p, o.seed);
  Plant& plant = *s.plant;

  std::vector<meter::ConsumerSeries> series =
      generate_fleet(plant.fleet, s.datagen_busy_s, s.datagen_readings);
  std::vector<meter::ConsumerSeries> test(p.consumers);
  for (std::size_t i = 0; i < p.consumers; ++i) {
    test[i].id = series[i].id;
    test[i].type = series[i].type;
    test[i].readings.assign(series[i].readings.begin() +
                                static_cast<std::ptrdiff_t>(plant.base),
                            series[i].readings.end());
  }
  plant.test = meter::Dataset(std::move(test));

  s.line = std::make_unique<Line>();
  Line& line = *s.line;
  line.monitor = std::make_unique<core::OnlineMonitor>(
      monitor_config(plant, line, 0));
  {
    const std::uint64_t t0 = now_ns();
    line.monitor->fit(meter::Dataset(std::move(series)), plant.split);
    s.fit_s = seconds_between(t0, now_ns());
  }
  attach_plane(plant, line, o.seed);

  sample.clear();
  for (std::size_t k = 0; k < p.sample; ++k) {
    sample.push_back(k * p.consumers / p.sample);
  }
  sample_log.clear();
  SpanLog off;
  for (std::size_t t = 0; t < p.warmup_slots; ++t) {
    run_slot(plant, line, t, off, -1);
    for (std::size_t j = 0; j < sample.size(); ++j) {
      core::Reading r = line.batch[sample[j]];
      r.consumer_index = j;
      sample_log.push_back(r);
    }
  }
  return s;
}

/// Alert identity for the reference comparison: slot, sample position,
/// consumer id, score and threshold bits, direction.
using AlertKey = std::tuple<SlotIndex, std::size_t, std::uint32_t,
                            std::uint64_t, std::uint64_t, int>;

AlertKey key_of(const core::AlertEvent& a, std::size_t j) {
  std::uint64_t score = 0;
  std::uint64_t threshold = 0;
  std::memcpy(&score, &a.score, sizeof(score));
  std::memcpy(&threshold, &a.threshold, sizeof(threshold));
  return {a.slot, j, a.consumer_id, score, threshold,
          static_cast<int>(a.direction)};
}

/// Fits a serial single-shard monitor on the sample consumers, replays their
/// delivered readings and returns the slots whose alerts differ from the
/// main monitor's.
std::vector<SlotIndex> mismatched_slots(
    const Plant& plant, const core::OnlineMonitor& main,
    const std::vector<std::size_t>& sample,
    const std::vector<core::Reading>& sample_log, bool perturb) {
  obs::MetricsRegistry registry;
  obs::EventLog quiet;
  core::OnlineMonitorConfig c;
  c.threads = 1;
  c.shards = 1;
  c.metrics = &registry;
  c.events = &quiet;
  core::OnlineMonitor ref(c);
  ref.fit_streaming(
      sample.size(),
      [&](std::size_t j) { return plant.fleet.consumer(sample[j]); },
      plant.split);
  ref.ingest_batch(sample_log);

  std::map<std::size_t, std::size_t> position;
  for (std::size_t j = 0; j < sample.size(); ++j) position[sample[j]] = j;
  std::map<SlotIndex, std::vector<AlertKey>> got;
  std::map<SlotIndex, std::vector<AlertKey>> want;
  for (const auto& a : main.alerts()) {
    const auto it = position.find(a.consumer_index);
    if (it != position.end()) got[a.slot].push_back(key_of(a, it->second));
  }
  std::vector<AlertKey> ref_keys;
  for (const auto& a : ref.alerts()) {
    ref_keys.push_back(key_of(a, a.consumer_index));
  }
  if (perturb) {
    if (ref_keys.empty()) {
      ref_keys.push_back({sample_log.back().slot, 0, 0, 0, 0, 0});
    } else {
      std::get<3>(ref_keys.front()) ^= 1;  // one score bit
    }
  }
  for (const auto& k : ref_keys) want[std::get<0>(k)].push_back(k);

  std::vector<SlotIndex> bad;
  for (const auto& [slot, keys] : got) {
    const auto it = want.find(slot);
    if (it == want.end() || it->second != keys) bad.push_back(slot);
  }
  for (const auto& [slot, keys] : want) {
    if (got.find(slot) == got.end()) bad.push_back(slot);
  }
  std::sort(bad.begin(), bad.end());
  bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
  return bad;
}

/// Replays test slots [first, last) on a fresh line restored from
/// `checkpoint`, with or without tracing.
struct Replay {
  std::unique_ptr<Line> line;
  SpanLog spans;
  LibrarySpans library;
  PhaseClock clock;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  obs::MetricsSnapshot pool_before;
  obs::MetricsSnapshot pool_after;
  std::size_t events_before = 0;
};

void replay(const Plant& plant, const std::string& checkpoint,
            std::size_t threads, bool traced, std::uint64_t seed,
            SlotIndex first, SlotIndex last, Replay& r) {
  r.line = std::make_unique<Line>();
  Line& line = *r.line;
  line.monitor = std::make_unique<core::OnlineMonitor>(
      monitor_config(plant, line, threads));
  StringSource buf(checkpoint);
  std::istream in(&buf);
  line.monitor->restore(in);
  attach_plane(plant, line, seed);

  r.before = line.registry.snapshot();
  r.pool_before = obs::default_registry().snapshot();
  r.events_before = line.events.size();
  r.spans.enable(traced);
  if (traced) obs::Tracer::instance().enable(1u << 18);
  r.clock = PhaseClock{};
  for (SlotIndex t = first; t < last; ++t) {
    run_slot(plant, line, t, r.spans, static_cast<std::int64_t>(t));
  }
  r.clock.stop();
  if (traced) {
    obs::Tracer::instance().disable();
    r.library.events = obs::Tracer::instance().collect();
  }
  r.spans.enable(false);
  r.after = line.registry.snapshot();
  r.pool_after = obs::default_registry().snapshot();
}

void emit_layers(const Options& o, const Setup& setup, double untraced_cpu_s,
                 Replay& traced, Replay& serial, Report& report) {
  const double n = static_cast<double>(fdeta::shared_pool().thread_count() + 1);
  const std::uint64_t t0 = traced.clock.t0;
  const std::uint64_t t1 = traced.clock.t1;
  const Delta d{traced.before, traced.after};
  const auto eff = [&](const char* span) {
    const double tn = traced.spans.total_s(span, t0, t1);
    const double t1s =
        serial.spans.total_s(span, serial.clock.t0, serial.clock.t1);
    return tn > 0.0 ? t1s / tn / n : 0.0;
  };

  report.metric("datagen.busy_s", setup.datagen_busy_s, "s");
  report.metric("datagen.readings", setup.datagen_readings, "count");
  report.metric("ami.transmit_s", traced.spans.total_s("ami.transmit", t0, t1),
                "s");
  report.metric("ami.readout_s", traced.spans.total_s("ami.readout", t0, t1),
                "s");
  for (const char* c :
       {"ami.messages_sent", "ami.retries", "ami.reports_received",
        "ami.duplicates_suppressed", "ami.reports_stale_rejected",
        "ami.reports_quarantined"}) {
    report.metric(c, d.counter(c), "count");
  }
  report.metric("ami.reports_missing", d.counter("monitor.readings_missing"),
                "count");
  const double received = d.counter("ami.reports_received");
  const double rejected = d.counter("ami.duplicates_suppressed") +
                          d.counter("ami.reports_stale_rejected") +
                          d.counter("ami.reports_quarantined");
  report.metric("ami.accepted_per_received",
                received > 0.0 ? (received - rejected) / received : 0.0,
                "ratio");

  report.metric("monitor.fit_s", setup.fit_s, "s");
  report.metric("monitor.ingest_s",
                traced.spans.total_s("monitor.ingest_batch", t0, t1), "s");
  for (const char* c : {"monitor.readings_ingested", "monitor.scores_evaluated",
                        "monitor.scores_coverage_gated",
                        "monitor.alerts_raised"}) {
    report.metric(c, d.counter(c), "count");
  }
  const double ingested = d.counter("monitor.readings_ingested");
  report.metric("monitor.scores_per_reading",
                ingested > 0.0 ? d.counter("monitor.scores_evaluated") /
                                     ingested
                               : 0.0,
                "ratio");
  report.metric("monitor.lock_wait_s",
                d.hist_sum_matching("monitor.shard", ".lock_wait_seconds"),
                "s");
  report.metric("monitor.shard_imbalance_milli",
                d.gauge("monitor.shard_imbalance_milli"), "milli");
  report.metric("monitor.parallel_eff", eff("monitor.ingest_batch"), "ratio");

  report.metric("hierarchy.evaluate_s",
                traced.spans.total_s("hierarchy.evaluate_feeders", t0, t1),
                "s");
  report.metric("hierarchy.nodes_scored",
                static_cast<double>(traced.line->nodes_scored), "count");
  report.metric("hierarchy.feeder_alerts", d.counter("hierarchy.feeder_alerts"),
                "count");
  report.metric("hierarchy.collusion_groups",
                d.counter("hierarchy.collusion_groups"), "count");
  report.metric("hierarchy.parallel_eff", eff("hierarchy.evaluate_feeders"),
                "ratio");

  const auto lines = traced.line->events.lines();
  double bytes = 0.0;
  for (std::size_t i = traced.events_before; i < lines.size(); ++i) {
    bytes += static_cast<double>(lines[i].size() + 1);
  }
  report.metric("obs.events",
                static_cast<double>(lines.size() - traced.events_before),
                "count");
  report.metric("obs.event_log_mb", bytes / 1e6, "MB");
  report.metric("obs.trace_overhead", traced.clock.cpu_s() / untraced_cpu_s,
                "ratio");

  finish_traced_phase(o, report, traced.spans, traced.library, traced.clock,
                      traced.pool_before, traced.pool_after);
}

}  // namespace

void run_stream(const Options& o, Report& report) {
  const Params p = params(o.tiny);
  std::vector<std::size_t> sample;
  std::vector<core::Reading> sample_log;
  Setup setup;
  SetupCost setup_cost;
  build_setup(setup, setup_cost,
              [&] { return set_up(p, o, sample, sample_log); });
  Plant& plant = *setup.plant;
  Line& line = *setup.line;

  std::string checkpoint;
  if (o.trace) {
    StringSink buf(checkpoint);
    std::ostream out(&buf);
    line.monitor->save(out);
  }

  // Timed phase: slots until --seconds have passed (and at least min_slots),
  // within the generated horizon.  A traced run spends a third of the time
  // here, extended to close a week so the feeder sweep is in it, then
  // replays the same slots from a checkpoint of the timed start.
  const SlotIndex first = p.warmup_slots;
  const SlotIndex horizon = plant.test.slot_count();
  const double budget = o.trace ? o.seconds / 3.0 : o.seconds;
  const std::size_t min_slots = o.trace ? 1 : p.min_slots;
  std::vector<OpCost> ops;
  std::vector<SlotIndex> failed_slots;
  SpanLog off;
  PhaseClock clock;
  SlotIndex t = first;
  bool week_closed = !o.trace;
  while (t < horizon &&
         (ops.size() < min_slots || !week_closed ||
          seconds_between(clock.t0, now_ns()) < budget)) {
    const OpTimer timer;
    try {
      run_slot(plant, line, t, off, static_cast<std::int64_t>(t));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: slot %zu failed: %s\n", t, e.what());
      failed_slots.push_back(plant.base + t);
    }
    ops.push_back(timer.stop());
    week_closed = week_closed || (plant.base + t + 1) % kWeek == 0;
    for (std::size_t j = 0; j < sample.size(); ++j) {
      core::Reading r = line.batch[sample[j]];
      r.consumer_index = j;
      sample_log.push_back(r);
    }
    ++t;
  }
  clock.stop();
  const double rss = peak_rss_mb();
  const SlotIndex last = t;
  const std::size_t slots = last - first;
  const std::vector<double> latency_ms = latencies_ms(ops);

  const auto bad =
      mismatched_slots(plant, *line.monitor, sample, sample_log, o.perturb);
  failed_slots.insert(failed_slots.end(), bad.begin(), bad.end());
  std::sort(failed_slots.begin(), failed_slots.end());
  failed_slots.erase(std::unique(failed_slots.begin(), failed_slots.end()),
                     failed_slots.end());
  report.attempted = p.warmup_slots + slots;
  report.failed = failed_slots.size();
  report.correct = report.failed == 0;

  const ami::FaultPlanConfig faults = fault_config(o.seed);
  std::printf("env     steal_share=%.4f timed_s=%.3f\n", clock.steal(),
              clock.wall_s());
  std::printf(
      "config  consumers=%zu detector=kld train_weeks=%zu horizon_weeks=%zu "
      "warmup_slots=%zu slots=%zu sample=%zu fanout=%zu pool_workers=%zu\n"
      "config  drop=%g dup=%g reorder=%g max_delay=%zu corrupt=%g "
      "max_retries=%zu backoff_slots=%zu\n",
      p.consumers, p.train_weeks, p.horizon_weeks, p.warmup_slots, slots,
      sample.size(), kFanout, fdeta::shared_pool().thread_count(),
      faults.drop_rate, faults.duplicate_rate, faults.reorder_rate,
      faults.max_delay_slots, faults.corrupt_rate, kRetransmit.max_retries,
      kRetransmit.backoff_base_slots);
  report.info("verdict_p50_ms", quantile(latency_ms, 0.5), "ms");
  report.info("verdict_p99_ms", quantile(latency_ms, 0.99), "ms");
  report.info("verdict_samples", static_cast<double>(latency_ms.size()),
              "count");
  report.info("failed_share",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "ratio");
  report.info("mismatched_alert_slots", static_cast<double>(bad.size()),
              "count");

  if (!o.trace) {
    emit_end_to_end(report, setup_cost, ops,
                    static_cast<double>(p.consumers), clock, rss);
    return;
  }
  // Every replay starts from the same restored state, so the untraced,
  // traced and one-thread passes differ only in tracing and width.
  for (const auto& [name, unit] : layer_metrics()) report.metric(name, 0, unit);
  Replay plain;
  replay(plant, checkpoint, 0, false, o.seed, first, last, plain);
  Replay traced;
  replay(plant, checkpoint, 0, true, o.seed, first, last, traced);
  Replay serial;
  replay(plant, checkpoint, 1, true, o.seed, first, last, serial);
  emit_layers(o, setup, plain.clock.cpu_s(), traced, serial, report);
}

}  // namespace e2e
