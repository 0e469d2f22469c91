#include "obs/timeseries.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <system_error>
#include <type_traits>
#include <utility>

#include "common/error.h"

namespace fdeta::obs {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Bucket-edge labels use %g: the default latency edges are short decades
// ("1e-06", "0.5") and the label must be stable, not a 17-digit round trip.
std::string format_edge(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string mangle_prometheus_name(std::string_view name) {
  std::string out(name);
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

void append_counter_map(std::string& out, const char* key,
                        const std::map<std::string, std::uint64_t>& map) {
  out += "\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, v] : map) {
    if (!first) out += ",";
    out += "\"" + name + "\":" + std::to_string(v);
    first = false;
  }
  out += "}";
}

void append_gauge_map(std::string& out, const char* key,
                      const std::map<std::string, std::int64_t>& map) {
  out += "\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, v] : map) {
    if (!first) out += ",";
    out += "\"" + name + "\":" + std::to_string(v);
    first = false;
  }
  out += "}";
}

std::uint64_t delta_u64(std::uint64_t now, std::uint64_t before) {
  return now >= before ? now - before : 0;
}

/// Finds `"key":` at object-key position (preceded by '{' or ',') and
/// returns the raw value token after it, up to the next ',' or '}' and
/// without surrounding blanks.  Metric names always carry a '.', so plain
/// keys like "slot" cannot collide with map entries.
std::optional<std::string_view> find_value(std::string_view line,
                                           std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string_view::npos) {
    if (pos > 0 && (line[pos - 1] == '{' || line[pos - 1] == ',')) {
      std::string_view token = line.substr(pos + needle.size());
      token = token.substr(0, token.find_first_of(",}"));
      const std::size_t first = token.find_first_not_of(" \t");
      if (first == std::string_view::npos) return token.substr(0, 0);
      return token.substr(first, token.find_last_not_of(" \t") + 1 - first);
    }
    pos += needle.size();
  }
  return std::nullopt;
}

/// `key`'s value in `line` as a T: a decimal integer in T's range for the
/// integer fields (no sign on the unsigned ones), a finite decimal for the
/// rates.  An absent key yields `fallback`; a malformed value throws
/// DataError.
template <typename T>
T parse_value(std::string_view line, std::string_view key, T fallback) {
  const auto token = find_value(line, key);
  if (!token.has_value()) return fallback;
  T value{};
  const char* end = token->data() + token->size();
  const auto [ptr, ec] = std::from_chars(token->data(), end, value);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw DataError("series frame: malformed \"" + std::string(key) +
                    "\" value '" + std::string(token->substr(0, 32)) + "'");
  }
  return value;
}

}  // namespace

std::string SeriesFrame::to_json(bool include_env) const {
  std::string out = "{";
  out += "\"series_schema\":" + std::to_string(kSeriesSchemaVersion);
  out += ",\"frame\":" + std::to_string(index);
  out += ",\"slot\":" + std::to_string(slot);
  out += ",\"slots_delta\":" + std::to_string(slots_delta);
  out += ",";
  append_counter_map(out, "counters", counter_deltas);
  out += ",";
  append_gauge_map(out, "gauges", gauges);
  out += ",\"rates\":{";
  out += "\"readings_per_slot\":" + format_double(readings_per_slot);
  out += ",\"alerts_per_hour\":" + format_double(alerts_per_hour);
  out += ",\"coverage_gated_fraction\":" +
         format_double(coverage_gated_fraction);
  out += ",\"drift_milli_bits\":" + std::to_string(drift_milli_bits);
  out += ",\"burst_milli\":" + std::to_string(burst_milli);
  out += "}";
  if (include_env) {
    out += ",\"env\":{";
    out += "\"uptime_seconds\":" + format_double(uptime_seconds);
    out += ",\"wall_delta_seconds\":" + format_double(wall_delta_seconds);
    out += ",\"readings_per_sec\":" + format_double(readings_per_sec);
    out += ",\"p95_ingest_seconds\":" + format_double(p95_ingest_seconds);
    out += ",\"worst_shard\":" + std::to_string(worst_shard);
    out += ",\"worst_shard_depth\":" + std::to_string(worst_shard_depth);
    out += ",";
    append_counter_map(out, "counters", env_counter_deltas);
    out += ",";
    append_gauge_map(out, "gauges", env_gauges);
    out += "}";
  }
  out += "}";
  return out;
}

TimeSeriesStore::TimeSeriesStore(std::size_t capacity) : capacity_(capacity) {
  require(capacity_ > 0, "TimeSeriesStore: capacity must be positive");
}

void TimeSeriesStore::push(SeriesFrame frame) {
  if (frames_.size() == capacity_) {
    frames_.pop_front();
    ++dropped_;
  }
  frames_.push_back(std::move(frame));
}

std::string TimeSeriesStore::to_jsonl(bool include_env) const {
  std::string out;
  for (const SeriesFrame& frame : frames_) {
    out += frame.to_json(include_env);
    out += "\n";
  }
  return out;
}

MetricsScraper::MetricsScraper(MetricsScraperConfig config)
    : config_(config) {
  require(config_.interval_slots > 0,
          "MetricsScraper: interval_slots must be positive");
}

void MetricsScraper::start(std::uint64_t slot) {
  const MetricsRegistry& registry =
      config_.registry != nullptr ? *config_.registry : default_registry();
  last_ = registry.snapshot();
  last_slot_ = slot;
  last_uptime_ = last_.uptime_seconds;
  started_ = true;
}

bool MetricsScraper::due(std::uint64_t slot) const {
  if (!started_) return slot >= config_.interval_slots;
  return slot >= last_slot_ + config_.interval_slots;
}

const SeriesFrame* MetricsScraper::maybe_scrape(std::uint64_t slot) {
  if (!due(slot)) return nullptr;
  return &scrape(slot);
}

const SeriesFrame& MetricsScraper::scrape(std::uint64_t slot) {
  require(slot > last_slot_ || (!started_ && next_index_ == 0),
          "MetricsScraper: slot clock must advance between scrapes");
  const std::uint64_t slots_delta = slot - last_slot_;
  const MetricsRegistry& registry =
      config_.registry != nullptr ? *config_.registry : default_registry();
  const MetricsSnapshot now = registry.snapshot();

  SeriesFrame frame;
  frame.index = next_index_++;
  frame.slot = slot;
  frame.slots_delta = slots_delta;
  frame.uptime_seconds = now.uptime_seconds;
  frame.wall_delta_seconds =
      started_ || frame.index > 0
          ? std::max(0.0, now.uptime_seconds - last_uptime_)
          : 0.0;

  for (const auto& [name, value] : now.counters) {
    const std::uint64_t delta = delta_u64(value, last_.counter(name));
    if (is_layout_scoped_metric(name)) {
      frame.env_counter_deltas[name] = delta;
    } else {
      frame.counter_deltas[name] = delta;
    }
  }
  for (const auto& [name, value] : now.gauges) {
    if (is_layout_scoped_metric(name)) {
      frame.env_gauges[name] = value;
    } else {
      frame.gauges[name] = value;
    }
  }

  // Windowed rates.  Logical rates divide by the slot clock and stay
  // deterministic; wall rates live in env.
  const std::uint64_t readings =
      frame.counter_deltas.count("monitor.readings_ingested") != 0
          ? frame.counter_deltas.at("monitor.readings_ingested")
          : 0;
  const std::uint64_t alerts =
      frame.counter_deltas.count("monitor.alerts_raised") != 0
          ? frame.counter_deltas.at("monitor.alerts_raised")
          : 0;
  const std::uint64_t evaluated =
      frame.counter_deltas.count("monitor.scores_evaluated") != 0
          ? frame.counter_deltas.at("monitor.scores_evaluated")
          : 0;
  const std::uint64_t gated =
      frame.counter_deltas.count("monitor.scores_coverage_gated") != 0
          ? frame.counter_deltas.at("monitor.scores_coverage_gated")
          : 0;
  if (slots_delta > 0) {
    frame.readings_per_slot =
        static_cast<double>(readings) / static_cast<double>(slots_delta);
    // 30-minute slots: 2 slots per logical hour.
    frame.alerts_per_hour =
        static_cast<double>(alerts) / (static_cast<double>(slots_delta) / 2.0);
  }
  if (evaluated + gated > 0) {
    frame.coverage_gated_fraction = static_cast<double>(gated) /
                                    static_cast<double>(evaluated + gated);
  }
  frame.drift_milli_bits = now.gauge("monitor.population_drift_milli_bits");
  frame.burst_milli = now.gauge("monitor.alert_burst_milli");

  if (frame.wall_delta_seconds > 0.0) {
    frame.readings_per_sec =
        static_cast<double>(readings) / frame.wall_delta_seconds;
  }

  // p95 ingest latency over the window: quantile of the per-bucket deltas
  // between this frame's histogram and the previous one.
  const auto hist = now.histograms.find("monitor.ingest_batch_seconds");
  if (hist != now.histograms.end()) {
    HistogramSnapshot window = hist->second;
    const auto prev = last_.histograms.find("monitor.ingest_batch_seconds");
    if (prev != last_.histograms.end() &&
        prev->second.buckets.size() == window.buckets.size()) {
      for (std::size_t b = 0; b < window.buckets.size(); ++b) {
        window.buckets[b] =
            delta_u64(window.buckets[b], prev->second.buckets[b]);
      }
      window.count = delta_u64(window.count, prev->second.count);
    }
    frame.p95_ingest_seconds = window.quantile(0.95);
  }

  // Worst shard: largest pending-batch high-water gauge across every
  // instrumented component ("monitor.shard07.pending_highwater", ...).
  for (const auto& [name, value] : frame.env_gauges) {
    const std::size_t shard_pos = name.find(".shard");
    if (shard_pos == std::string::npos) continue;
    if (name.size() < 18 ||
        name.compare(name.size() - 18, 18, ".pending_highwater") != 0) {
      continue;
    }
    if (value <= frame.worst_shard_depth && frame.worst_shard >= 0) continue;
    frame.worst_shard_depth = value;
    frame.worst_shard = 0;
    for (std::size_t p = shard_pos + 6; p < name.size(); ++p) {
      if (name[p] < '0' || name[p] > '9') break;
      frame.worst_shard = frame.worst_shard * 10 + (name[p] - '0');
    }
  }

  last_ = now;
  last_slot_ = slot;
  last_uptime_ = now.uptime_seconds;
  started_ = true;
  store_.push(std::move(frame));
  return store_.frames().back();
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out += "# HELP fdeta_build_info Build metadata for this exposition.\n";
  out += "# TYPE fdeta_build_info gauge\n";
  out += "fdeta_build_info{version=\"";
  out += fdeta_version();
  out += "\",schema=\"" + std::to_string(kMetricsSchemaVersion) + "\"} 1\n";
  out += "# HELP fdeta_process_uptime_seconds Seconds since process start.\n";
  out += "# TYPE fdeta_process_uptime_seconds gauge\n";
  out += "fdeta_process_uptime_seconds " +
         format_double(snapshot.uptime_seconds) + "\n";

  for (const auto& [name, value] : snapshot.counters) {
    const std::string mangled = mangle_prometheus_name(name);
    out += "# HELP " + mangled + " fdeta counter " + name + "\n";
    out += "# TYPE " + mangled + " counter\n";
    out += mangled + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string mangled = mangle_prometheus_name(name);
    out += "# HELP " + mangled + " fdeta gauge " + name + "\n";
    out += "# TYPE " + mangled + " gauge\n";
    out += mangled + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string mangled = mangle_prometheus_name(name);
    out += "# HELP " + mangled + " fdeta histogram " + name + "\n";
    out += "# TYPE " + mangled + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      const std::string le = b < h.upper_edges.size()
                                 ? format_edge(h.upper_edges[b])
                                 : std::string("+Inf");
      out += mangled + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += mangled + "_sum " + format_double(h.sum) + "\n";
    out += mangled + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string scoreboard_header() {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%5s %8s %9s %10s %9s %7s %7s %7s %8s %11s", "frame", "slot",
                "rdgs/slot", "rdgs/s", "alerts/h", "gated%", "p95ms",
                "drift", "burst", "worst-shard");
  return buf;
}

std::string scoreboard_line(const SeriesFrame& frame) {
  char shard[32];
  if (frame.worst_shard >= 0) {
    std::snprintf(shard, sizeof(shard), "s%02" PRId64 ":%" PRId64,
                  frame.worst_shard, frame.worst_shard_depth);
  } else {
    std::snprintf(shard, sizeof(shard), "-");
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%5" PRIu64 " %8" PRIu64
                " %9.1f %10.0f %9.2f %6.1f%% %7.2f %7" PRId64 " %8" PRId64
                " %11s",
                frame.index, frame.slot, frame.readings_per_slot,
                frame.readings_per_sec, frame.alerts_per_hour,
                100.0 * frame.coverage_gated_fraction,
                1000.0 * frame.p95_ingest_seconds, frame.drift_milli_bits,
                frame.burst_milli, shard);
  return buf;
}

std::optional<SeriesFrame> parse_series_frame(std::string_view line) {
  if (!find_value(line, "frame").has_value() ||
      !find_value(line, "slot").has_value()) {
    return std::nullopt;
  }
  using U64 = std::uint64_t;
  using I64 = std::int64_t;
  SeriesFrame frame;
  frame.index = parse_value<U64>(line, "frame", 0);
  frame.slot = parse_value<U64>(line, "slot", 0);
  frame.slots_delta = parse_value<U64>(line, "slots_delta", 0);
  frame.readings_per_slot = parse_value(line, "readings_per_slot", 0.0);
  frame.alerts_per_hour = parse_value(line, "alerts_per_hour", 0.0);
  frame.coverage_gated_fraction =
      parse_value(line, "coverage_gated_fraction", 0.0);
  frame.drift_milli_bits = parse_value<I64>(line, "drift_milli_bits", 0);
  frame.burst_milli = parse_value<I64>(line, "burst_milli", 0);
  frame.uptime_seconds = parse_value(line, "uptime_seconds", 0.0);
  frame.wall_delta_seconds = parse_value(line, "wall_delta_seconds", 0.0);
  frame.readings_per_sec = parse_value(line, "readings_per_sec", 0.0);
  frame.p95_ingest_seconds = parse_value(line, "p95_ingest_seconds", 0.0);
  frame.worst_shard = parse_value<I64>(line, "worst_shard", -1);
  frame.worst_shard_depth = parse_value<I64>(line, "worst_shard_depth", 0);
  return frame;
}

}  // namespace fdeta::obs
