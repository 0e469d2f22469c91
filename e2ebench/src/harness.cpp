#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/thread_pool.h"

namespace e2e {

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

void release_free_memory() { malloc_trim(0); }

std::vector<fdeta::meter::ConsumerSeries> generate_fleet(
    const fdeta::datagen::StreamingFleet& fleet, double& busy_s,
    double& readings) {
  std::vector<fdeta::meter::ConsumerSeries> series(fleet.consumer_count());
  std::atomic<std::uint64_t> busy_ns{0};
  fdeta::parallel_for(series.size(), [&](std::size_t i) {
    const std::uint64_t t0 = now_ns();
    series[i] = fleet.consumer(i);
    busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  });
  busy_s = static_cast<double>(busy_ns.load()) * 1e-9;
  readings = static_cast<double>(series.size() *
                                 series.front().readings.size());
  return series;
}

fdeta::grid::Topology feeder_tree(std::size_t consumers) {
  fdeta::Rng rng(0xFEEDE5u);
  return fdeta::grid::Topology::random_radial(consumers, kFanout, rng, 0.02);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int SpanLog::open(const char* name, std::int64_t op) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (op < 0 && parent >= 0) op = spans_[static_cast<std::size_t>(parent)].op;
  spans_.push_back(Span{name, now_ns(), 0, parent, op});
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double SpanLog::total_s(std::string_view name, std::uint64_t t0,
                        std::uint64_t t1) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.start_ns >= t0 && s.start_ns < t1 && name == s.name) {
      total += seconds_between(s.start_ns, s.end_ns);
    }
  }
  return total;
}

namespace {

std::string layer_of(const char* name) {
  const std::string_view n(name);
  return std::string(n.substr(0, n.find('.')));
}

}  // namespace

std::map<std::string, SpanLog::LayerTime> SpanLog::layers(
    std::uint64_t t0, std::uint64_t t1) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns < t0 || s.start_ns >= t1) continue;
    const std::string layer = layer_of(s.name);
    if (layer == "op") continue;
    const double d = seconds_between(s.start_ns, s.end_ns);
    LayerTime& lt = out[layer];
    lt.self_s += d - child_s[i];
    const bool outermost =
        s.parent < 0 ||
        layer_of(spans_[static_cast<std::size_t>(s.parent)].name) != layer;
    if (outermost) lt.busy_s += d;
  }
  return out;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "e2ebench: metric %s is not finite\n", name.c_str());
    value = 0.0;
    correct = false;
  }
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = {value, unit};
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("info    %-30s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::print_result() const {
  for (const std::string& name : order_) {
    const auto& [value, unit] = metrics_.at(name);
    std::printf("metric  %-30s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const auto& [value, unit] = metrics_.at(name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void emit_end_to_end(Report& report, const SetupCost& setup,
                     const std::vector<OpCost>& ops, double readings_per_op,
                     const PhaseClock& clock, double rss_mb) {
  double busy_s = 0.0;
  double caller_cpu_s = 0.0;
  for (const OpCost& op : ops) {
    busy_s += op.wall_s;
    caller_cpu_s += op.caller_cpu_s;
  }
  const double readings = readings_per_op * static_cast<double>(ops.size());
  // Gated metrics are CPU and memory costs: host steal moves wall-clock
  // figures by far more than any bound could absorb (see README.md), so the
  // wall-clock figures are printed beside them instead.
  report.metric("setup_s", quantile(setup.cpu_s, 0.5), "s");
  report.metric("cpu_us_per_reading", clock.cpu_s() * 1e6 / readings, "us");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.info("setup_wall_s", quantile(setup.wall_s, 0.5), "s");
  report.info("readings_per_s", readings / busy_s, "1/s");
  report.info("caller_cpu_us_per_reading", caller_cpu_s * 1e6 / readings,
              "us");
}

std::vector<double> latencies_ms(const std::vector<OpCost>& ops) {
  std::vector<double> out;
  for (const OpCost& op : ops) out.push_back(op.wall_s * 1e3);
  return out;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"datagen.busy_s", "s"},
      {"datagen.readings", "count"},
      {"ami.transmit_s", "s"},
      {"ami.readout_s", "s"},
      {"ami.messages_sent", "count"},
      {"ami.retries", "count"},
      {"ami.reports_received", "count"},
      {"ami.duplicates_suppressed", "count"},
      {"ami.reports_stale_rejected", "count"},
      {"ami.reports_quarantined", "count"},
      {"ami.reports_missing", "count"},
      {"ami.accepted_per_received", "ratio"},
      {"monitor.fit_s", "s"},
      {"monitor.ingest_s", "s"},
      {"monitor.readings_ingested", "count"},
      {"monitor.scores_evaluated", "count"},
      {"monitor.scores_coverage_gated", "count"},
      {"monitor.alerts_raised", "count"},
      {"monitor.scores_per_reading", "ratio"},
      {"monitor.lock_wait_s", "s"},
      {"monitor.shard_imbalance_milli", "milli"},
      {"monitor.parallel_eff", "ratio"},
      {"hierarchy.evaluate_s", "s"},
      {"hierarchy.nodes_scored", "count"},
      {"hierarchy.feeder_alerts", "count"},
      {"hierarchy.collusion_groups", "count"},
      {"hierarchy.parallel_eff", "ratio"},
      {"pipeline.fit_s", "s"},
      {"pipeline.warmup_s", "s"},
      {"pipeline.score_s", "s"},
      {"pipeline.verdicts", "count"},
      {"pipeline.verdict_attacker", "count"},
      {"pipeline.investigations", "count"},
      {"pipeline.parallel_eff", "ratio"},
      {"persist.save_s", "s"},
      {"persist.restore_s", "s"},
      {"persist.encode_s", "s"},
      {"persist.write_s", "s"},
      {"persist.decode_s", "s"},
      {"persist.read_s", "s"},
      {"persist.bytes", "B"},
      {"persist.save_mb_per_s", "MB/s"},
      {"persist.restore_mb_per_s", "MB/s"},
      {"persist.parallel_eff", "ratio"},
      {"obs.events", "count"},
      {"obs.event_log_mb", "MB"},
      {"obs.trace_overhead", "ratio"},
      {"pool.tasks_completed", "count"},
      {"pool.queue_depth_highwater", "count"},
      {"pool.busy_share", "ratio"},
  };
  return kMetrics;
}

double Delta::counter(std::string_view name) const {
  return static_cast<double>(after.counter(name) - before.counter(name));
}

double Delta::gauge(std::string_view name) const {
  return static_cast<double>(after.gauge(name));
}

double Delta::hist_sum(std::string_view name) const {
  const auto sum = [&](const fdeta::obs::MetricsSnapshot& s) {
    const auto it = s.histograms.find(std::string(name));
    return it == s.histograms.end() ? 0.0 : it->second.sum;
  };
  return sum(after) - sum(before);
}

double Delta::hist_sum_matching(std::string_view prefix,
                                std::string_view suffix) const {
  double total = 0.0;
  for (const auto& [name, h] : after.histograms) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += hist_sum(name);
    }
  }
  return total;
}

double LibrarySpans::total_s(std::string_view name, std::uint64_t t0,
                             std::uint64_t t1) const {
  double total = 0.0;
  for (const auto& e : events) {
    if (e.start_ns >= t0 && e.start_ns < t1 && name == e.name) {
      total += static_cast<double>(e.duration_ns) * 1e-9;
    }
  }
  return total;
}

namespace {

void print_layer_table(const SpanLog& spans, std::uint64_t t0,
                       std::uint64_t t1) {
  const double wall = seconds_between(t0, t1);
  std::printf("layer   %-12s %10s %8s %10s %8s  (timed phase %.3f s)\n",
              "name", "busy_s", "share", "self_s", "share", wall);
  for (const auto& [layer, t] : spans.layers(t0, t1)) {
    std::printf("layer   %-12s %10.4f %7.1f%% %10.4f %7.1f%%\n",
                layer.c_str(), t.busy_s, 100.0 * t.busy_s / wall, t.self_s,
                100.0 * t.self_s / wall);
  }
}

std::string write_chrome_trace(const Options& options, const SpanLog& spans,
                               const LibrarySpans& library,
                               std::uint64_t t0) {
  std::filesystem::create_directories(options.trace_dir);
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".trace.json";
  std::ofstream out(path);
  const auto us = [t0](std::uint64_t ns) {
    return ns >= t0 ? static_cast<double>(ns - t0) * 1e-3
                    : -static_cast<double>(t0 - ns) * 1e-3;
  };
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const auto& s = spans.spans()[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":0,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%" PRId64 "}}",
                  first ? "" : ",", s.name, layer_of(s.name).c_str(),
                  us(s.start_ns),
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.op);
    out << buf;
    first = false;
  }
  for (const auto& e : library.events) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":2,\"tid\":%u}",
                  first ? "" : ",", e.name, e.category, us(e.start_ns),
                  static_cast<double>(e.duration_ns) * 1e-3, e.tid);
    out << buf;
    first = false;
  }
  out << "]}\n";
  return path;
}

}  // namespace

void finish_traced_phase(const Options& options, Report& report,
                         const SpanLog& spans, const LibrarySpans& library,
                         const PhaseClock& clock,
                         const fdeta::obs::MetricsSnapshot& pool_before,
                         const fdeta::obs::MetricsSnapshot& pool_after) {
  const Delta pool{pool_before, pool_after};
  const auto workers =
      static_cast<double>(fdeta::shared_pool().thread_count());
  report.metric("pool.tasks_completed", pool.counter("pool.tasks_completed"),
                "count");
  report.metric("pool.queue_depth_highwater",
                pool.gauge("pool.queue_depth_highwater"), "count");
  report.metric("pool.busy_share",
                library.total_s("pool.task", clock.t0, clock.t1) /
                    (workers * clock.wall_s()),
                "ratio");
  print_layer_table(spans, clock.t0, clock.t1);
  std::printf("trace   %s (%zu library spans, %llu dropped)\n",
              write_chrome_trace(options, spans, library, clock.t0).c_str(),
              library.events.size(),
              static_cast<unsigned long long>(
                  fdeta::obs::Tracer::instance().dropped()));
}

}  // namespace e2e
