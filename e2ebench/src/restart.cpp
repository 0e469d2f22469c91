// `restart`: a warm restart of the control-center monitor.  A fitted
// OnlineMonitor fleet whose checkpoint exceeds the last-level cache goes
// through repeated save -> restore cycles, each into a fresh monitor.  The
// checkpoint lives in memory: disk writeback is host noise, not the program.
// persist does the writing and the detector restore does the rest; the AMI
// plane, scoring and the pipeline do none.
#include <atomic>
#include <cstdio>
#include <istream>
#include <memory>
#include <ostream>

#include "common/thread_pool.h"
#include "core/online_monitor.h"
#include "datagen/generator.h"
#include "harness.h"
#include "obs/event_log.h"

namespace e2e {
namespace {

namespace core = fdeta::core;
namespace meter = fdeta::meter;
namespace obs = fdeta::obs;

struct Params {
  std::size_t consumers;
  std::size_t train_weeks;
  std::size_t min_cycles;  ///< timed cycles, even past --seconds
};

Params params(bool tiny) {
  if (tiny) return {400, 4, 3};
  return {34000, 6, 6};
}

struct Setup {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::EventLog> events;  // never enabled
  std::unique_ptr<core::OnlineMonitor> monitor;
  double datagen_busy_s = 0.0;
  double datagen_readings = 0.0;
  double fit_s = 0.0;
};

core::OnlineMonitorConfig monitor_config(const Setup& s, std::size_t threads) {
  core::OnlineMonitorConfig c;
  c.threads = threads;
  c.metrics = s.registry.get();
  c.events = s.events.get();
  return c;
}

std::string save(const core::OnlineMonitor& monitor, std::size_t reserve) {
  std::string bytes;
  bytes.reserve(reserve);
  StringSink buf(bytes);
  std::ostream out(&buf);
  monitor.save(out);
  return bytes;
}

std::unique_ptr<core::OnlineMonitor> restore(const Setup& s,
                                             const std::string& bytes,
                                             std::size_t threads) {
  auto monitor =
      std::make_unique<core::OnlineMonitor>(monitor_config(s, threads));
  StringSource buf(bytes);
  std::istream in(&buf);
  monitor->restore(in);
  return monitor;
}

/// Datagen + streaming fit.  The fit pulls one generated series per
/// consumer, so its wall time includes generation; the generator's own share
/// is its busy time in thread-seconds.
Setup set_up(const Params& p, const Options& o) {
  Setup s;
  s.registry = std::make_unique<obs::MetricsRegistry>();
  s.events = std::make_unique<obs::EventLog>();
  const fdeta::datagen::StreamingFleet fleet(
      fdeta::datagen::scaled_config(p.consumers, p.train_weeks, o.seed));
  s.monitor = std::make_unique<core::OnlineMonitor>(monitor_config(s, 0));
  std::atomic<std::uint64_t> busy_ns{0};
  const std::uint64_t t0 = now_ns();
  s.monitor->fit_streaming(
      p.consumers,
      [&](std::size_t i) {
        const std::uint64_t g0 = now_ns();
        meter::ConsumerSeries series = fleet.consumer(i);
        busy_ns.fetch_add(now_ns() - g0, std::memory_order_relaxed);
        return series;
      },
      meter::TrainTestSplit{p.train_weeks, 0});
  s.fit_s = seconds_between(t0, now_ns());
  s.datagen_busy_s = static_cast<double>(busy_ns.load()) * 1e-9;
  s.datagen_readings = static_cast<double>(p.consumers * p.train_weeks *
                                           fdeta::kSlotsPerWeek);
  return s;
}

struct Cycle {
  OpCost cost;
  double save_s = 0.0;
  bool ok = true;
};

/// Runs save -> restore cycles on `s.monitor` until the budget is spent (or
/// `count` cycles when count > 0).  Each save is compared with `expected`
/// outside the clock; the save after a cycle's restore checks that restore,
/// so a final untimed save checks the last one.
std::vector<Cycle> run_cycles(Setup& s, std::size_t threads, double budget,
                              std::size_t min_cycles, std::size_t count,
                              const std::string& expected, SpanLog& spans,
                              PhaseClock& clock) {
  std::vector<Cycle> out;
  clock = PhaseClock{};
  for (std::size_t k = 0;
       count > 0 ? k < count
                 : (k < min_cycles ||
                    seconds_between(clock.t0, now_ns()) < budget);
       ++k) {
    Cycle c;
    std::string bytes;
    std::unique_ptr<core::OnlineMonitor> next;
    const OpTimer timer;
    try {
      Scope root(spans, "op.cycle", static_cast<std::int64_t>(k));
      {
        Scope call(spans, "persist.save");
        bytes = save(*s.monitor, expected.size());
      }
      c.save_s = timer.stop().wall_s;
      Scope call(spans, "persist.restore");
      next = restore(s, bytes, threads);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: cycle %zu failed: %s\n", k, e.what());
      c.ok = false;
    }
    c.cost = timer.stop();
    if (bytes != expected) {
      c.ok = false;
      if (!out.empty()) out.back().ok = false;  // its restore fed this save
    }
    out.push_back(c);
    if (next) s.monitor = std::move(next);
  }
  clock.stop();
  if (!out.empty() && save(*s.monitor, expected.size()) != expected) {
    out.back().ok = false;
  }
  return out;
}

}  // namespace

void run_restart(const Options& o, Report& report) {
  const Params p = params(o.tiny);
  Setup setup;
  SetupCost setup_cost;
  build_setup(setup, setup_cost, [&] { return set_up(p, o); });
  // Every save, timed or not, must reproduce the fitted monitor's bytes.
  const std::string fitted = save(*setup.monitor, 0);
  std::string perturbed;
  if (o.perturb) {
    perturbed = fitted;
    perturbed[perturbed.size() / 2] ^= 0x01;  // one byte
  }
  const std::string& expected = o.perturb ? perturbed : fitted;

  // A traced run measures a third of the time untraced, then repeats the
  // same number of cycles traced at full and at one thread.
  const double budget = o.trace ? o.seconds / 3.0 : o.seconds;
  SpanLog off;
  PhaseClock clock;
  const auto cycles = run_cycles(setup, 0, budget, o.trace ? 2 : p.min_cycles,
                                 0, expected, off, clock);
  const double rss = peak_rss_mb();
  std::vector<OpCost> ops;
  std::vector<double> save_s, restore_s;
  std::size_t bad = 0;
  for (const Cycle& c : cycles) {
    ops.push_back(c.cost);
    save_s.push_back(c.save_s);
    restore_s.push_back(c.cost.wall_s - c.save_s);
    bad += c.ok ? 0 : 1;
  }
  const double bytes = static_cast<double>(fitted.size());
  report.attempted = cycles.size();
  report.failed = bad;
  report.correct = bad == 0;

  std::printf("env     steal_share=%.4f timed_s=%.3f\n", clock.steal(),
              clock.wall_s());
  std::printf(
      "config  consumers=%zu detector=kld train_weeks=%zu cycles=%zu "
      "pool_workers=%zu\n",
      p.consumers, p.train_weeks, cycles.size(),
      fdeta::shared_pool().thread_count());
  report.info("cycle_p50_ms", quantile(latencies_ms(ops), 0.5), "ms");
  report.info("save_s", quantile(save_s, 0.5), "s");
  report.info("restore_s", quantile(restore_s, 0.5), "s");
  report.info("checkpoint_mb", bytes / 1e6, "MB");
  report.info("cycle_samples", static_cast<double>(cycles.size()), "count");
  report.info("failed_share",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "ratio");

  if (!o.trace) {
    emit_end_to_end(report, setup_cost, ops,
                    static_cast<double>(p.consumers * fdeta::kSlotsPerWeek),
                    clock, rss);
    return;
  }

  for (const auto& [name, unit] : layer_metrics()) report.metric(name, 0, unit);
  const double n = static_cast<double>(fdeta::shared_pool().thread_count() + 1);
  const auto pool_before = obs::default_registry().snapshot();
  SpanLog spans;
  spans.enable(true);
  obs::Tracer::instance().enable(1u << 18);
  PhaseClock traced;
  const auto traced_cycles = run_cycles(setup, 0, 0.0, 0, cycles.size(),
                                        expected, spans, traced);
  obs::Tracer::instance().disable();
  const LibrarySpans library{obs::Tracer::instance().collect()};
  const auto pool_after = obs::default_registry().snapshot();

  SpanLog serial_spans;
  serial_spans.enable(true);
  setup.monitor = restore(setup, fitted, 1);
  PhaseClock serial;
  run_cycles(setup, 1, 0.0, 0, cycles.size(), expected, serial_spans, serial);

  const std::uint64_t t0 = traced.t0;
  const std::uint64_t t1 = traced.t1;
  const double k = static_cast<double>(traced_cycles.size());
  const double save_mean = spans.total_s("persist.save", t0, t1) / k;
  const double restore_mean = spans.total_s("persist.restore", t0, t1) / k;
  const double write_mean =
      library.total_s("persist.write_checkpoint", t0, t1) / k;
  const double read_mean =
      library.total_s("persist.read_checkpoint", t0, t1) / k;
  const double serial_total =
      serial_spans.total_s("persist.save", serial.t0, serial.t1) +
      serial_spans.total_s("persist.restore", serial.t0, serial.t1);
  const double mb = bytes / 1e6;

  report.metric("datagen.busy_s", setup.datagen_busy_s, "s");
  report.metric("datagen.readings", setup.datagen_readings, "count");
  report.metric("monitor.fit_s", setup.fit_s, "s");
  report.metric("persist.save_s", save_mean, "s");
  report.metric("persist.restore_s", restore_mean, "s");
  report.metric("persist.encode_s", save_mean - write_mean, "s");
  report.metric("persist.write_s", write_mean, "s");
  report.metric("persist.decode_s", restore_mean - read_mean, "s");
  report.metric("persist.read_s", read_mean, "s");
  report.metric("persist.bytes", bytes, "B");
  report.metric("persist.save_mb_per_s", mb / save_mean, "MB/s");
  report.metric("persist.restore_mb_per_s", mb / restore_mean, "MB/s");
  report.metric("persist.parallel_eff",
                serial_total / ((save_mean + restore_mean) * k) / n, "ratio");
  // Same number of cycles on both sides.
  report.metric("obs.trace_overhead", traced.cpu_s() / clock.cpu_s(),
                "ratio");
  finish_traced_phase(o, report, spans, library, traced, pool_before,
                      pool_after);
}

}  // namespace e2e
