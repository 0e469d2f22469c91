// `weekly-sweep`: the paper's weekly batch.  FdetaPipeline::evaluate_week
// with the feeder hierarchy on judges consecutive test weeks of a reported
// dataset carrying a seeded attack mix (one collusion group plus scattered
// under-reporters).  Per-consumer scoring and the hierarchy do the work;
// the AMI plane and persist do none.  One untimed warm-up week absorbs the
// lazy feeder fit.
#include <cstdio>
#include <istream>
#include <map>
#include <memory>
#include <ostream>

#include "attack/collusion.h"
#include "attack/injector.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "harness.h"

namespace e2e {
namespace {

namespace core = fdeta::core;
namespace meter = fdeta::meter;
namespace obs = fdeta::obs;
constexpr std::size_t kWeek = fdeta::kSlotsPerWeek;

struct Params {
  std::size_t consumers;
  std::size_t train_weeks;
  std::size_t test_weeks;  ///< the first is the warm-up week
  std::size_t colluders;
  double shave;            ///< colluders' under-report fraction
  std::size_t under;       ///< consumers under-reporting on their own
  std::size_t min_weeks;   ///< timed weeks, even past --seconds
};

Params params(bool tiny) {
  if (tiny) return {300, 4, 3, 4, 0.04, 6, 4};
  return {8000, 6, 4, 4, 0.04, 80, 30};
}

struct Setup {
  std::unique_ptr<meter::Dataset> actual;
  std::unique_ptr<meter::Dataset> reported;
  std::unique_ptr<fdeta::grid::Topology> topology;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<core::FdetaPipeline> pipeline;
  meter::TrainTestSplit split;
  double datagen_busy_s = 0.0;
  double datagen_readings = 0.0;
  double fit_s = 0.0;
  double warmup_s = 0.0;
};

const core::EvidenceCalendar& calendar() {
  static const core::EvidenceCalendar kEmpty;
  return kEmpty;
}

core::PipelineConfig pipeline_config(const meter::TrainTestSplit& split,
                                     obs::MetricsRegistry& registry,
                                     std::size_t threads, bool hierarchy) {
  core::PipelineConfig c;
  c.split = split;
  c.threads = threads;
  c.metrics = &registry;
  c.hierarchy = hierarchy;
  return c;
}

/// The seeded attack mix: one collusion group shaving every test week, and
/// `under` other consumers, drawn by the seed, under-reporting by 30-70%.
std::vector<fdeta::attack::WeekInjection> attack_mix(
    const Params& p, const meter::Dataset& actual,
    const fdeta::grid::Topology& topology, std::uint64_t seed) {
  std::vector<fdeta::attack::WeekInjection> out;
  std::vector<char> taken(p.consumers, 0);
  for (std::size_t w = p.train_weeks; w < p.train_weeks + p.test_weeks; ++w) {
    auto group = fdeta::attack::make_collusion_scenario(
        topology, actual, p.colluders, p.shave, w);
    for (const std::size_t c : group.consumers) taken[c] = 1;
    out.insert(out.end(), group.injections.begin(), group.injections.end());
  }
  fdeta::Rng rng(seed ^ 0xA77Au);
  for (std::size_t n = 0; n < p.under;) {
    const auto c = static_cast<std::size_t>(rng.below(p.consumers));
    if (taken[c]) continue;
    taken[c] = 1;
    ++n;
    const double factor = rng.uniform(0.3, 0.7);
    const auto& readings = actual.consumer(c).readings;
    for (std::size_t w = p.train_weeks; w < p.train_weeks + p.test_weeks;
         ++w) {
      fdeta::attack::WeekInjection inj{c, w, {}};
      inj.reported_week.assign(
          readings.begin() + static_cast<std::ptrdiff_t>(w * kWeek),
          readings.begin() + static_cast<std::ptrdiff_t>((w + 1) * kWeek));
      for (auto& kw : inj.reported_week) kw *= factor;
      out.push_back(std::move(inj));
    }
  }
  return out;
}

Setup set_up(const Params& p, const Options& o) {
  Setup s;
  s.split = {p.train_weeks, p.test_weeks};
  const fdeta::datagen::StreamingFleet fleet(fdeta::datagen::scaled_config(
      p.consumers, p.train_weeks + p.test_weeks, o.seed));
  s.actual = std::make_unique<meter::Dataset>(
      generate_fleet(fleet, s.datagen_busy_s, s.datagen_readings));
  s.topology =
      std::make_unique<fdeta::grid::Topology>(feeder_tree(p.consumers));
  s.reported = std::make_unique<meter::Dataset>(fdeta::attack::apply_injections(
      *s.actual, attack_mix(p, *s.actual, *s.topology, o.seed)));

  s.registry = std::make_unique<obs::MetricsRegistry>();
  s.pipeline = std::make_unique<core::FdetaPipeline>(
      pipeline_config(s.split, *s.registry, 0, true));
  {
    const std::uint64_t t0 = now_ns();
    s.pipeline->fit(*s.actual);
    s.fit_s = seconds_between(t0, now_ns());
  }
  {
    const std::uint64_t t0 = now_ns();
    s.pipeline->evaluate_week(*s.actual, *s.reported, p.train_weeks,
                              calendar(), s.topology.get());
    s.warmup_s = seconds_between(t0, now_ns());
  }
  return s;
}

/// Timed weeks cycle through the test weeks after the warm-up week.
std::size_t week_of(const Params& p, std::size_t k) {
  return p.train_weeks + 1 + k % (p.test_weeks - 1);
}

/// FNV-1a over every field of every per-consumer verdict.
std::uint64_t verdict_hash(const core::PipelineReport& report) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& v : report.verdicts) {
    const auto status = static_cast<std::uint8_t>(v.status);
    const std::uint8_t excused = v.excuse.has_value() ? 1 : 0;
    mix(&v.id, sizeof(v.id));
    mix(&status, 1);
    mix(&v.kld_score, sizeof(v.kld_score));
    mix(&v.kld_threshold, sizeof(v.kld_threshold));
    mix(&v.missing_slots, sizeof(v.missing_slots));
    mix(&excused, 1);
  }
  return h;
}

struct WeekResult {
  std::size_t week = 0;
  std::uint64_t hash = 0;
  std::size_t nodes = 0;
  OpCost cost;
  bool threw = false;
};

/// Runs timed weeks k = 0.. until the budget is spent (or `count` weeks
/// when count > 0).  Verdict hashes are taken outside the clock.
std::vector<WeekResult> run_weeks(const Params& p, const Setup& s,
                                  const core::FdetaPipeline& pipeline,
                                  double budget, std::size_t min_weeks,
                                  std::size_t count, SpanLog& spans,
                                  PhaseClock& clock) {
  std::vector<WeekResult> out;
  clock = PhaseClock{};
  for (std::size_t k = 0;
       count > 0 ? k < count
                 : (k < min_weeks ||
                    seconds_between(clock.t0, now_ns()) < budget);
       ++k) {
    WeekResult r;
    r.week = week_of(p, k);
    core::PipelineReport report;
    const OpTimer timer;
    try {
      Scope root(spans, "op.week", static_cast<std::int64_t>(k));
      Scope call(spans, "pipeline.evaluate_week");
      report = pipeline.evaluate_week(*s.actual, *s.reported, r.week,
                                      calendar(), s.topology.get());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: week %zu failed: %s\n", r.week,
                   e.what());
      r.threw = true;
    }
    r.cost = timer.stop();
    r.hash = verdict_hash(report);
    r.nodes = report.feeder ? report.feeder->nodes.size() : 0;
    out.push_back(r);
  }
  clock.stop();
  return out;
}

/// Re-judges every distinct timed week on a serial, hierarchy-free pipeline
/// warm-started from the main pipeline's checkpoint; returns how many timed
/// weeks disagree with it.
std::size_t mismatched_weeks(const Setup& s, const std::string& checkpoint,
                             const std::vector<WeekResult>& weeks,
                             bool perturb) {
  obs::MetricsRegistry registry;
  core::FdetaPipeline ref(pipeline_config(s.split, registry, 1, false));
  StringSource buf(checkpoint);
  std::istream in(&buf);
  ref.load_model(in);
  std::map<std::size_t, std::uint64_t> want;
  for (const auto& w : weeks) {
    if (want.count(w.week) != 0) continue;
    auto report = ref.evaluate_week(*s.actual, *s.reported, w.week,
                                    calendar(), s.topology.get());
    if (perturb && want.empty()) {
      report.verdicts.front().status = core::VerdictStatus::kSuspectedVictim;
      report.verdicts.front().kld_score += 1.0;
    }
    want[w.week] = verdict_hash(report);
  }
  std::size_t bad = 0;
  for (const auto& w : weeks) bad += (w.threw || want[w.week] != w.hash);
  return bad;
}

struct Replay {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<core::FdetaPipeline> pipeline;
  SpanLog spans;
  LibrarySpans library;
  PhaseClock clock;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  obs::MetricsSnapshot pool_before;
  obs::MetricsSnapshot pool_after;
  std::size_t nodes = 0;
};

/// Warm-starts a pipeline from `checkpoint` at `threads`, runs its untimed
/// warm-up week, then replays `count` timed weeks, with or without tracing.
void replay(const Params& p, const Setup& s, const std::string& checkpoint,
            std::size_t threads, bool traced, std::size_t count, Replay& r) {
  r.registry = std::make_unique<obs::MetricsRegistry>();
  r.pipeline = std::make_unique<core::FdetaPipeline>(
      pipeline_config(s.split, *r.registry, threads, true));
  StringSource buf(checkpoint);
  std::istream in(&buf);
  r.pipeline->load_model(in);
  r.pipeline->evaluate_week(*s.actual, *s.reported, p.train_weeks, calendar(),
                            s.topology.get());
  r.before = r.registry->snapshot();
  r.pool_before = obs::default_registry().snapshot();
  r.spans.enable(traced);
  if (traced) obs::Tracer::instance().enable(1u << 18);
  const auto weeks =
      run_weeks(p, s, *r.pipeline, 0.0, 0, count, r.spans, r.clock);
  if (traced) {
    obs::Tracer::instance().disable();
    r.library.events = obs::Tracer::instance().collect();
  }
  r.spans.enable(false);
  r.after = r.registry->snapshot();
  r.pool_after = obs::default_registry().snapshot();
  for (const auto& w : weeks) r.nodes += w.nodes;
}

void emit_layers(const Options& o, const Setup& s, double untraced_cpu_s,
                 Replay& traced, Replay& serial, Report& report) {
  const double n = static_cast<double>(fdeta::shared_pool().thread_count() + 1);
  const std::uint64_t t0 = traced.clock.t0;
  const std::uint64_t t1 = traced.clock.t1;
  const Delta d{traced.before, traced.after};
  const Delta d1{serial.before, serial.after};
  const double evaluate_s =
      traced.spans.total_s("pipeline.evaluate_week", t0, t1);
  const double hierarchy_s = d.hist_sum("hierarchy.evaluate_seconds");
  const double evaluate1_s = serial.spans.total_s(
      "pipeline.evaluate_week", serial.clock.t0, serial.clock.t1);
  const double hierarchy1_s = d1.hist_sum("hierarchy.evaluate_seconds");
  const auto eff = [n](double t1s, double tn) {
    return tn > 0.0 ? t1s / tn / n : 0.0;
  };

  report.metric("datagen.busy_s", s.datagen_busy_s, "s");
  report.metric("datagen.readings", s.datagen_readings, "count");
  report.metric("hierarchy.evaluate_s", hierarchy_s, "s");
  report.metric("hierarchy.nodes_scored", static_cast<double>(traced.nodes),
                "count");
  report.metric("hierarchy.feeder_alerts", d.counter("hierarchy.feeder_alerts"),
                "count");
  report.metric("hierarchy.collusion_groups",
                d.counter("hierarchy.collusion_groups"), "count");
  report.metric("hierarchy.parallel_eff", eff(hierarchy1_s, hierarchy_s),
                "ratio");
  report.metric("pipeline.fit_s", s.fit_s, "s");
  report.metric("pipeline.warmup_s", s.warmup_s, "s");
  report.metric("pipeline.score_s", evaluate_s - hierarchy_s, "s");
  for (const char* c : {"pipeline.verdicts", "pipeline.verdict_attacker",
                        "pipeline.investigations"}) {
    report.metric(c, d.counter(c), "count");
  }
  report.metric("pipeline.parallel_eff",
                eff(evaluate1_s - hierarchy1_s, evaluate_s - hierarchy_s),
                "ratio");
  report.metric("obs.trace_overhead", traced.clock.cpu_s() / untraced_cpu_s,
                "ratio");
  finish_traced_phase(o, report, traced.spans, traced.library, traced.clock,
                      traced.pool_before, traced.pool_after);
  std::printf("layer   of which hierarchy (inside evaluate_week) %.4f s\n",
              hierarchy_s);
}

}  // namespace

void run_sweep(const Options& o, Report& report) {
  const Params p = params(o.tiny);
  Setup setup;
  SetupCost setup_cost;
  build_setup(setup, setup_cost, [&] { return set_up(p, o); });

  // A traced run spends a third of the time here, then replays the same
  // weeks on pipelines warm-started from this one's checkpoint.
  const double budget = o.trace ? o.seconds / 3.0 : o.seconds;
  SpanLog off;
  PhaseClock clock;
  const auto weeks = run_weeks(p, setup, *setup.pipeline, budget,
                               o.trace ? 1 : p.min_weeks, 0, off, clock);
  const double rss = peak_rss_mb();
  std::vector<OpCost> ops;
  for (const auto& w : weeks) ops.push_back(w.cost);
  const std::vector<double> latency_ms = latencies_ms(ops);

  std::string checkpoint;
  {
    StringSink buf(checkpoint);
    std::ostream out(&buf);
    setup.pipeline->save_model(out);
  }
  const std::size_t bad =
      mismatched_weeks(setup, checkpoint, weeks, o.perturb);
  report.attempted = weeks.size();
  report.failed = bad;
  report.correct = bad == 0;

  std::printf("env     steal_share=%.4f timed_s=%.3f\n", clock.steal(),
              clock.wall_s());
  std::printf(
      "config  consumers=%zu detector=kld hierarchy=1 train_weeks=%zu "
      "test_weeks=%zu weeks=%zu fanout=%zu colluders=%zu shave=%g "
      "under_reporters=%zu pool_workers=%zu\n",
      p.consumers, p.train_weeks, p.test_weeks, weeks.size(), kFanout,
      p.colluders, p.shave, p.under, fdeta::shared_pool().thread_count());
  report.info("week_verdict_p50_ms", quantile(latency_ms, 0.5), "ms");
  report.info("week_verdict_p90_ms", quantile(latency_ms, 0.9), "ms");
  report.info("week_samples", static_cast<double>(latency_ms.size()),
              "count");
  report.info("failed_share",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "ratio");

  if (!o.trace) {
    emit_end_to_end(report, setup_cost, ops,
                    static_cast<double>(p.consumers * kWeek), clock, rss);
    return;
  }
  // Every replay warm-starts from the same checkpoint, so the untraced,
  // traced and one-thread passes differ only in tracing and width.
  for (const auto& [name, unit] : layer_metrics()) report.metric(name, 0, unit);
  Replay plain;
  replay(p, setup, checkpoint, 0, false, weeks.size(), plain);
  Replay traced;
  replay(p, setup, checkpoint, 0, true, weeks.size(), traced);
  Replay serial;
  replay(p, setup, checkpoint, 1, true, weeks.size(), serial);
  emit_layers(o, setup, plain.clock.cpu_s(), traced, serial, report);
}

}  // namespace e2e
