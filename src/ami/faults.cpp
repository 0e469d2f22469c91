#include "ami/faults.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"

namespace fdeta::ami {

namespace {

double parse_rate(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double rate = 0.0;
  try {
    rate = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  require(pos == value.size() && rate >= 0.0 && rate <= 1.0,
          "parse_fault_plan: " + key + " must be a rate in [0,1], got '" +
              value + "'");
  return rate;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  require(pos == value.size() && !value.empty(),
          "parse_fault_plan: " + key + " must be a non-negative integer, "
              "got '" + value + "'");
  return static_cast<std::uint64_t>(n);
}

}  // namespace

FaultPlanConfig parse_fault_plan(const std::string& spec) {
  FaultPlanConfig config;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    require(eq != std::string::npos,
            "parse_fault_plan: expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "drop") {
      config.drop_rate = parse_rate(key, value);
    } else if (key == "dup") {
      config.duplicate_rate = parse_rate(key, value);
    } else if (key == "reorder") {
      config.reorder_rate = parse_rate(key, value);
    } else if (key == "delay") {
      config.max_delay_slots =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "corrupt") {
      config.corrupt_rate = parse_rate(key, value);
    } else if (key == "burst-every") {
      config.burst_period_slots =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "burst-len") {
      config.burst_length_slots =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "seed") {
      config.seed = parse_u64(key, value);
    } else {
      throw InvalidArgument("parse_fault_plan: unknown key '" + key + "'");
    }
  }
  require(config.burst_period_slots == 0 ||
              config.burst_length_slots <= config.burst_period_slots,
          "parse_fault_plan: burst-len must not exceed burst-every");
  return config;
}

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(config) {
  // Every field is checked whether or not its channel is on, so a bad rate
  // set in code fails here instead of silently disabling its channel (the
  // negated comparison also rejects NaN).
  const auto check_rate = [](double rate, const char* name) {
    require(rate >= 0.0 && rate <= 1.0,
            std::string("FaultPlan: ") + name + " must be a rate in [0,1]");
  };
  check_rate(config_.drop_rate, "drop_rate");
  check_rate(config_.duplicate_rate, "duplicate_rate");
  check_rate(config_.reorder_rate, "reorder_rate");
  check_rate(config_.corrupt_rate, "corrupt_rate");
  require(config_.burst_period_slots == 0 ||
              config_.burst_length_slots <= config_.burst_period_slots,
          "FaultPlan: burst_length_slots must not exceed burst_period_slots");
  require(config_.reorder_rate == 0.0 || config_.max_delay_slots > 0,
          "FaultPlan: reorder enabled with zero max_delay_slots");
}

Rng FaultPlan::attempt_rng(const ReadingReport& report,
                          std::uint32_t attempt) const {
  // Fold (seed, consumer, slot, attempt) into one key by chaining SplitMix64
  // rounds.  The resulting generator is independent of delivery order,
  // thread schedule, and every other attempt's draws.
  std::uint64_t key = config_.seed;
  const std::uint64_t words[3] = {
      static_cast<std::uint64_t>(report.consumer_index),
      static_cast<std::uint64_t>(report.slot),
      static_cast<std::uint64_t>(attempt)};
  for (const std::uint64_t word : words) {
    SplitMix64 mix(key ^ (word + 0x9E3779B97F4A7C15ULL));
    key = mix.next();
  }
  return Rng(key);
}

DeliveryAttempt FaultPlan::apply(const ReadingReport& report,
                                 SlotIndex sent_at,
                                 std::uint32_t attempt) const {
  DeliveryAttempt out;
  out.report = report;
  // Burst outage: a mesh-wide window on the logical clock, no draw.
  if (config_.burst_period_slots > 0 &&
      sent_at % config_.burst_period_slots < config_.burst_length_slots) {
    out.dropped = true;
    return out;
  }
  Rng rng = attempt_rng(report, attempt);
  if (config_.drop_rate > 0.0 && rng.uniform() < config_.drop_rate) {
    out.dropped = true;
    return out;
  }
  if (config_.corrupt_rate > 0.0 && rng.uniform() < config_.corrupt_rate) {
    out.corrupted = true;
    // Three shapes of in-flight bit rot, all outside the legitimate domain
    // (the generator clamps demand to >= 0), so the head-end quarantine can
    // recognise every one of them.
    switch (rng.below(3)) {
      case 0:
        out.report.kw = -(out.report.kw + 1.0);
        break;
      case 1:
        out.report.kw = 1.0e9 * (1.0 + rng.uniform());
        break;
      default:
        out.report.kw = std::numeric_limits<double>::quiet_NaN();
        break;
    }
  }
  if (config_.duplicate_rate > 0.0 &&
      rng.uniform() < config_.duplicate_rate) {
    out.duplicates = 1;
  }
  if (config_.reorder_rate > 0.0 && rng.uniform() < config_.reorder_rate) {
    out.delay_slots =
        1 + static_cast<std::size_t>(rng.below(config_.max_delay_slots));
  }
  return out;
}

std::vector<std::uint32_t> CollectedReport::week_missing(
    std::size_t week) const {
  const auto slots = static_cast<std::size_t>(kSlotsPerWeek);
  std::vector<std::uint32_t> counts(missing.size(), 0);
  for (std::size_t c = 0; c < missing.size(); ++c) {
    const auto& mask = missing[c];
    require((week + 1) * slots <= mask.size(),
            "CollectedReport::week_missing: week out of range");
    for (std::size_t s = 0; s < slots; ++s) {
      if (mask[week * slots + s]) ++counts[c];
    }
  }
  return counts;
}

CollectedReport collect_reported(const HeadEnd& head_end,
                                 const meter::Dataset& shape) {
  require(head_end.consumer_count() == shape.consumer_count(),
          "collect_reported: consumer count mismatch");
  require(head_end.slot_count() == shape.slot_count(),
          "collect_reported: slot count mismatch");
  const std::size_t consumers = shape.consumer_count();
  const std::size_t horizon = shape.slot_count();
  const auto slots = static_cast<std::size_t>(kSlotsPerWeek);
  CollectedReport out;
  out.missing.assign(consumers, std::vector<char>(horizon, 0));
  std::vector<meter::ConsumerSeries> series(consumers);
  for (std::size_t c = 0; c < consumers; ++c) {
    series[c].id = shape.consumer(c).id;
    series[c].type = shape.consumer(c).type;
    series[c].readings.assign(horizon, 0.0);
  }
  // One pass over the head-end's slot rows fills every series and mask.
  for (SlotIndex t = 0; t < horizon; ++t) {
    for (std::size_t c = 0; c < consumers; ++c) {
      if (head_end.has_reading(c, t)) {
        series[c].readings[t] = head_end.reading(c, t);
      } else {
        out.missing[c][t] = 1;
      }
    }
  }
  // Fill gaps with the most recent accepted reading at the same slot-of-week
  // position - the least surprising stand-in for detectors that are not
  // coverage-aware.  Coverage-aware callers consult the mask and never score
  // a gated week at all.
  std::vector<Kw> last(slots);
  std::vector<char> seen(slots);
  for (std::size_t c = 0; c < consumers; ++c) {
    std::vector<Kw>& values = series[c].readings;
    const std::vector<char>& mask = out.missing[c];
    std::fill(last.begin(), last.end(), 0.0);
    std::fill(seen.begin(), seen.end(), 0);
    for (std::size_t t = 0; t < horizon; ++t) {
      const std::size_t column = t % slots;
      if (!mask[t]) {
        last[column] = values[t];
        seen[column] = 1;
      } else if (seen[column]) {
        values[t] = last[column];
      }
    }
  }
  out.dataset = meter::Dataset(std::move(series));
  return out;
}

}  // namespace fdeta::ami
