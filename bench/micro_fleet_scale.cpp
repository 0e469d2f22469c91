// Fleet-scale throughput: consumers/sec for FdetaPipeline::fit and weekly
// KLD scoring, serial vs the shared thread pool, at 1k / 10k / 50k synthetic
// consumers, plus OnlineMonitor::ingest_batch readings/sec and the
// cold-fit vs warm-start (save_model/load_model checkpoint) comparison.
// Two fleet stages ride on top: a shard-contention sweep (concurrent feed
// threads through the locked ingest() path, global lock vs the sharded
// lock table) and a streaming mega-fleet run (fit_streaming + bulk v3
// checkpoint warm start at a million consumers).
// This is the ROADMAP's production-scale loop (millions of meters at a
// control center); the numbers here anchor the perf trajectory from PR 1
// onward.
//
// Each scale also prints a stage-level breakdown from the obs telemetry
// layer (one isolated registry per scale, plus shared-pool deltas from the
// default registry), so a throughput regression can be localised to a stage
// before anyone reaches for a profiler.
//
// Flags: --smoke caps the population at 1000 consumers (the CI lane);
// --bench-out PATH additionally writes the run as machine-readable JSON
// (the committed BENCH_fleet.json perf trajectory; tools/bench_compare.py
// gates CI on the derived ratios).
// Env knobs: FDETA_FLEET_MAX caps the largest population (default 50000,
// lower it on small machines); FDETA_FLEET_WEEKS sets the horizon (default
// 9 = 8 training weeks + 1 scored week); FDETA_FLEET_THREADS sets the
// feed-thread fan for the shard-contention stage (default 8);
// FDETA_FLEET_MEGA sizes the streaming mega-fleet stage (default 1000000;
// the smoke lane caps it at 10000); FDETA_SEED as everywhere;
// FDETA_TRACE_BUDGET sets the relative tracing-overhead budget (default
// 0.05 = 5%) enforced by the final stage.
//
// Before the first timed stage an untimed warm-up waits until a
// parallel_for runs at full width and prints how long that took.  The
// "derived" rows the CI gate reads are same-run ratios: the fit's pool
// speedup, shard contention, and each detector family's fit and score
// rate, the pooled and the hierarchy weekly sweeps' rates and each warm
// restore divided by a bench-local reference pass that no change under
// src/ can move.
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ami/faults.h"
#include "ami/network.h"
#include "bench/bench_util.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/detector_registry.h"
#include "core/online_monitor.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "grid/topology.h"
#include "meter/dataset.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace {

using fdeta::Kw;
using fdeta::kSlotsPerWeek;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The same-run references the gated sweep rates and restore times are
// divided by.  No code under src/ runs them, so no detector kernel, fit or
// restore change can move them, while they track how fast this machine
// runs that kind of loop at the moment they are taken.
volatile double reference_sink = 0.0;

/// The detector reference for one range of readings: the textbook eq.-(12)
/// count - std::upper_bound over ten fixed bins on [0, 10] kW - then a
/// c log2 c fold over the counts.
template <typename Range>
double reference_count(const Range& values) {
  static constexpr std::array<double, 11> kEdges = {0, 1, 2, 3, 4, 5,
                                                    6, 7, 8, 9, 10};
  std::array<std::uint32_t, kEdges.size() + 1> counts{};
  for (const Kw v : values) {
    ++counts[std::upper_bound(kEdges.begin(), kEdges.end(), v) -
             kEdges.begin()];
  }
  double fold = 0.0;
  for (const std::uint32_t n : counts) {
    if (n > 0) fold += n * std::log2(static_cast<double>(n));
  }
  return fold;
}

/// reference_count over each range `range_of(c)` yields for c in
/// [0, count), on the calling thread.  Returns its seconds.
template <typename RangeOf>
double reference_count_seconds(std::size_t count, const RangeOf& range_of) {
  const auto start = std::chrono::steady_clock::now();
  double fold = 0.0;
  for (std::size_t c = 0; c < count; ++c) fold += reference_count(range_of(c));
  reference_sink = fold;
  return seconds_since(start);
}

/// The same on the shared pool at full width, in chunks of 16 ranges as
/// the pipeline's weekly sweep: the reference for the pooled sweeps, so
/// the pool's share of the machine moves both sides of their ratios.
/// Returns its seconds.
template <typename RangeOf>
double pooled_reference_count_seconds(std::size_t count,
                                      const RangeOf& range_of) {
  std::vector<double> folds(count);
  const auto start = std::chrono::steady_clock::now();
  fdeta::parallel_for(
      count, [&](std::size_t c) { folds[c] = reference_count(range_of(c)); },
      0, /*grain=*/16);
  const double seconds = seconds_since(start);
  double fold = 0.0;
  for (const double f : folds) fold += f;
  reference_sink = fold;
  return seconds;
}

/// Seconds per call of `pass`, best of `rounds` samples that each repeat
/// it until they span >= 30 ms (one call can sit below timer and
/// scheduler noise).
template <typename Pass>
double best_batched_seconds(std::size_t rounds, const Pass& pass) {
  double best = 1e300;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::size_t calls = 0;
    double elapsed = 0.0;
    const auto start = std::chrono::steady_clock::now();
    do {
      pass();
      ++calls;
      elapsed = seconds_since(start);
    } while (elapsed < 0.03);
    best = std::min(best, elapsed / static_cast<double>(calls));
  }
  return best;
}

/// The restore reference: FNV-1a over `bytes`, one dependent xor-multiply
/// per byte.  Returns its seconds.
double reference_fold_seconds(std::string_view bytes) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char b : bytes) {
    hash = (hash ^ static_cast<unsigned char>(b)) * 0x100000001b3ULL;
  }
  reference_sink = static_cast<double>(hash);
  return seconds_since(start);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Untimed pool warm-up before the first timed stage.  A run's first pooled
// stages could read ~1.0x speedups (the whole run got about one CPU's
// worth).  Each round is one parallel_for of `width` tasks - the pool's
// width, or the host's hardware threads if fewer (the default pool is one
// wider than the host) - that each burn kBurn of their own thread's CPU
// time; the round ran at full width when its wall time stayed under
// 1.5 x kBurn, which time-slicing on fewer CPUs cannot do.  kStreak such
// rounds in a row (a tenth of a second at full width) end the warm-up; it
// gives up after 5 s.
struct PoolWarmUp {
  std::size_t width = 0;
  std::size_t rounds = 0;
  double seconds = 0.0;
  bool full_width = false;
};

PoolWarmUp warm_pool() {
  constexpr double kBurn = 0.002;
  constexpr std::size_t kStreak = 50;
  PoolWarmUp out;
  out.width = std::min<std::size_t>(
      fdeta::parallel_width(0),
      std::max(1u, std::thread::hardware_concurrency()));
  const auto start = std::chrono::steady_clock::now();
  std::size_t streak = 0;
  while (streak < kStreak && seconds_since(start) < 5.0) {
    ++out.rounds;
    const auto round = std::chrono::steady_clock::now();
    fdeta::parallel_for(out.width, [](std::size_t) {
      const double until = thread_cpu_seconds() + kBurn;
      while (thread_cpu_seconds() < until) {
      }
    });
    streak = seconds_since(round) < 1.5 * kBurn ? streak + 1 : 0;
  }
  out.seconds = seconds_since(start);
  out.full_width = streak == kStreak;
  return out;
}

struct FleetTimings {
  double fit_serial = 0.0;
  double fit_pooled = 0.0;
  double score_serial = 0.0;
  double score_pooled = 0.0;
  double score_reference = 0.0;  // pooled reference pass, consumers/sec
  double batch_pooled = 0.0;     // readings/sec
  double cold_fit_s = 0.0;       // pooled fit wall time (one fit)
  double warm_restore_s = 0.0;   // load_model wall time from a checkpoint
  double restore_reference_s = 0.0;  // reference pass over the model bytes
  std::size_t model_bytes = 0;   // checkpoint size
};

/// Restores timed per warm-start measurement; the best one is kept.
constexpr std::size_t kRestoreRounds = 15;

FleetTimings run_scale(std::size_t consumers, std::size_t weeks,
                       std::uint64_t seed, fdeta::obs::MetricsRegistry& reg) {
  const auto dataset = fdeta::datagen::small_dataset(consumers, weeks, seed);
  const fdeta::meter::TrainTestSplit split{.train_weeks = weeks - 1,
                                           .test_weeks = 1};
  const fdeta::core::EvidenceCalendar calendar;
  const auto week_of = [&](std::size_t c) {
    return dataset.consumer(c).week(weeks - 1);
  };
  FleetTimings out;

  for (const bool pooled : {false, true}) {
    fdeta::core::PipelineConfig config;
    config.split = split;
    config.threads = pooled ? 0 : 1;
    config.metrics = &reg;
    fdeta::core::FdetaPipeline pipeline(config);

    auto start = std::chrono::steady_clock::now();
    pipeline.fit(dataset);
    const double fit_s = seconds_since(start);

    // A single weekly sweep is microseconds/consumer; average a few rounds.
    const std::size_t rounds = 5;
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto report =
          pipeline.evaluate_week(dataset, dataset, weeks - 1, calendar);
      if (report.verdicts.size() != consumers) std::abort();
    }
    const double score_s = seconds_since(start) / rounds;

    (pooled ? out.fit_pooled : out.fit_serial) =
        static_cast<double>(consumers) / fit_s;
    (pooled ? out.score_pooled : out.score_serial) =
        static_cast<double>(consumers) / score_s;

    if (pooled) {
      // The pooled sweep's same-run reference over the same weeks, timed
      // the same way.
      double reference_s = 0.0;
      for (std::size_t r = 0; r < rounds; ++r) {
        reference_s += pooled_reference_count_seconds(consumers, week_of);
      }
      out.score_reference =
          static_cast<double>(consumers) / (reference_s / rounds);

      // Warm-start serving: checkpoint the fitted pipeline and time a fresh
      // process restoring it instead of refitting from raw readings.  The
      // restored pipeline must reproduce the cold fit's verdicts exactly.
      out.cold_fit_s = fit_s;
      std::stringstream model(std::ios::in | std::ios::out |
                              std::ios::binary);
      pipeline.save_model(model);
      const std::string bytes = model.str();
      out.model_bytes = bytes.size();

      // One restore is well under a millisecond at smoke scale: keep the
      // best of many, each round next to a reference pass over the same
      // bytes, so both see the same machine.
      fdeta::core::PipelineConfig warm_config;
      warm_config.metrics = &reg;
      fdeta::core::FdetaPipeline warm(warm_config);
      out.warm_restore_s = 1e300;
      out.restore_reference_s = 1e300;
      for (std::size_t r = 0; r < kRestoreRounds; ++r) {
        std::istringstream in(bytes, std::ios::binary);
        start = std::chrono::steady_clock::now();
        warm.load_model(in);
        out.warm_restore_s =
            std::min(out.warm_restore_s, seconds_since(start));
        out.restore_reference_s =
            std::min(out.restore_reference_s, reference_fold_seconds(bytes));
      }

      const auto cold =
          pipeline.evaluate_week(dataset, dataset, weeks - 1, calendar);
      const auto warmed =
          warm.evaluate_week(dataset, dataset, weeks - 1, calendar);
      for (std::size_t c = 0; c < consumers; ++c) {
        if (cold.verdicts[c].status != warmed.verdicts[c].status ||
            cold.verdicts[c].kld_score != warmed.verdicts[c].kld_score) {
          std::fprintf(stderr, "warm-start verdict mismatch at consumer %zu\n",
                       c);
          std::abort();
        }
      }
    }
  }

  // Streaming path: one head-end delivery = one slot for every consumer.
  fdeta::core::OnlineMonitorConfig mon_config;
  mon_config.stride = 1;  // score on every reading (worst case)
  mon_config.metrics = &reg;
  fdeta::core::OnlineMonitor monitor(mon_config);
  monitor.fit(dataset, split);
  std::vector<fdeta::core::Reading> delivery;
  delivery.reserve(consumers);
  const fdeta::SlotIndex base = split.train_weeks * kSlotsPerWeek;
  const std::size_t slots = 4;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < slots; ++s) {
    delivery.clear();
    for (std::size_t c = 0; c < consumers; ++c) {
      delivery.push_back({.consumer_index = c,
                          .slot = base + s,
                          .kw = dataset.consumer(c).readings[base + s]});
    }
    monitor.ingest_batch(delivery);
  }
  out.batch_pooled =
      static_cast<double>(consumers * slots) / seconds_since(start);
  return out;
}

// Shard-contention stage: the same fitted fleet driven through the locked
// per-reading ingest() path by F concurrent feed threads (each owns a
// contiguous consumer range, delivering slot-major like a head-end), with
// the per-consumer state behind one global lock (shards=1) vs the sharded
// lock table (shards=64).  Results are identical by construction (sharding
// moves locks, never results); only the readings/sec changes.  Every point
// restores the same checkpoint, so the comparison starts from identical
// state and the warm-start path gets exercised under every lock layout.
struct ShardPoint {
  std::size_t shards = 0;   // resolved shard count
  std::size_t threads = 0;  // feed threads
  double readings_per_s = 0.0;
};

std::vector<ShardPoint> run_shard_scaling(std::size_t max_consumers,
                                          std::size_t weeks,
                                          std::uint64_t seed,
                                          std::size_t max_threads) {
  const std::size_t consumers = std::min<std::size_t>(10000, max_consumers);
  const auto dataset = fdeta::datagen::small_dataset(consumers, weeks, seed);
  const fdeta::meter::TrainTestSplit split{.train_weeks = weeks - 1,
                                           .test_weeks = 1};

  fdeta::obs::MetricsRegistry reg;
  fdeta::core::OnlineMonitorConfig base_config;
  base_config.stride = 1;  // score on every reading (worst case)
  base_config.metrics = &reg;
  fdeta::core::OnlineMonitor fitted(base_config);
  fitted.fit(dataset, split);
  std::stringstream model(std::ios::in | std::ios::out | std::ios::binary);
  fitted.save(model);

  std::vector<std::size_t> thread_counts{1, max_threads / 2, max_threads};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());
  if (thread_counts.front() == 0) thread_counts.erase(thread_counts.begin());

  const fdeta::SlotIndex base = split.train_weeks * kSlotsPerWeek;
  const std::size_t slots = 4;

  std::printf(
      "\n=== shard contention @%zu consumers: ingest() readings/s, %zu "
      "feed threads max ===\n",
      consumers, max_threads);
  std::printf("%7s %8s | %14s\n", "shards", "feeds", "readings/s");

  std::vector<ShardPoint> points;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{64}}) {
    for (const std::size_t threads : thread_counts) {
      fdeta::core::OnlineMonitorConfig config = base_config;
      config.shards = shards;
      fdeta::core::OnlineMonitor monitor(config);
      model.clear();
      model.seekg(0);
      monitor.restore(model);

      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> feeds;
      feeds.reserve(threads);
      const std::size_t per = (consumers + threads - 1) / threads;
      for (std::size_t f = 0; f < threads; ++f) {
        feeds.emplace_back([&, f] {
          const std::size_t begin = f * per;
          const std::size_t end = std::min(consumers, begin + per);
          for (std::size_t s = 0; s < slots; ++s) {
            for (std::size_t c = begin; c < end; ++c) {
              monitor.ingest(c, base + static_cast<fdeta::SlotIndex>(s),
                             dataset.consumer(c).readings[base + s]);
            }
          }
        });
      }
      for (std::thread& feed : feeds) feed.join();
      const double rate =
          static_cast<double>(consumers * slots) / seconds_since(start);
      points.push_back({monitor.shard_count(), threads, rate});
      std::printf("%7zu %8zu | %14.0f\n", monitor.shard_count(), threads,
                  rate);
    }
  }
  return points;
}

// Streaming mega-fleet stage: fit_streaming materialises one generated
// series at a time (a million-consumer history would be tens of gigabytes;
// the fitted state is ~3 GB), scores slot-major deliveries through
// ingest_batch, then times the checkpoint save and the bulk warm start.
// Delivery values reuse each consumer's primed window (regenerating the
// history just to read two slots per consumer would time the generator,
// not the monitor).
struct MegaResult {
  std::size_t consumers = 0;
  std::size_t shard_count = 0;
  double fit_consumers_per_s = 0.0;
  double ingest_readings_per_s = 0.0;
  double fit_s = 0.0;
  double save_s = 0.0;
  double restore_s = 0.0;
  double restore_reference_s = 0.0;  // reference pass over the checkpoint
  std::size_t checkpoint_bytes = 0;
};

MegaResult run_mega(std::size_t count, std::size_t weeks,
                    std::uint64_t seed) {
  const fdeta::datagen::StreamingFleet fleet(
      fdeta::datagen::scaled_config(count, weeks, seed));
  const fdeta::meter::TrainTestSplit split{.train_weeks = weeks - 1,
                                           .test_weeks = 1};

  fdeta::obs::MetricsRegistry reg;
  fdeta::core::OnlineMonitorConfig config;
  config.stride = 1;
  config.metrics = &reg;
  fdeta::core::OnlineMonitor monitor(config);

  MegaResult out;
  out.consumers = count;

  auto start = std::chrono::steady_clock::now();
  monitor.fit_streaming(
      count, [&](std::size_t i) { return fleet.consumer(i); }, split);
  out.fit_s = seconds_since(start);
  out.fit_consumers_per_s = static_cast<double>(count) / out.fit_s;
  out.shard_count = monitor.shard_count();

  const fdeta::SlotIndex base = split.train_weeks * kSlotsPerWeek;
  const std::size_t slots = 2;
  std::vector<fdeta::core::Reading> delivery(count);
  double ingest_s = 0.0;
  for (std::size_t s = 0; s < slots; ++s) {
    const auto slot = base + static_cast<fdeta::SlotIndex>(s);
    for (std::size_t c = 0; c < count; ++c) {
      delivery[c] = {.consumer_index = c,
                     .slot = slot,
                     .kw = monitor.window(c)[slot % kSlotsPerWeek]};
    }
    start = std::chrono::steady_clock::now();
    monitor.ingest_batch(delivery);
    ingest_s += seconds_since(start);
  }
  out.ingest_readings_per_s =
      static_cast<double>(count * slots) / ingest_s;

  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  start = std::chrono::steady_clock::now();
  monitor.save(checkpoint);
  out.save_s = seconds_since(start);
  const std::string bytes = checkpoint.str();
  out.checkpoint_bytes = bytes.size();

  // Best of a few restores, each next to a reference pass over the same
  // bytes (one restore is a few hundredths of a second at smoke scale).
  out.restore_s = 1e300;
  out.restore_reference_s = 1e300;
  for (std::size_t r = 0; r < 3; ++r) {
    fdeta::core::OnlineMonitor warm(config);
    std::istringstream in(bytes, std::ios::binary);
    start = std::chrono::steady_clock::now();
    warm.restore(in);
    out.restore_s = std::min(out.restore_s, seconds_since(start));
    if (warm.consumer_count() != count) std::abort();
    out.restore_reference_s =
        std::min(out.restore_reference_s, reference_fold_seconds(bytes));
  }

  std::printf(
      "\n=== mega fleet @%zu consumers (streaming fit): fit %.1fs "
      "(%.0f consumers/s), ingest %.0f readings/s, checkpoint %.1f MB, "
      "save %.2fs, warm restore %.2fs (%.1fx faster than refit) ===\n",
      count, out.fit_s, out.fit_consumers_per_s, out.ingest_readings_per_s,
      static_cast<double>(out.checkpoint_bytes) / (1024.0 * 1024.0),
      out.save_s, out.restore_s, out.fit_s / out.restore_s);
  return out;
}

// Detector-family stage: serial fit and weekly-score throughput for every
// registered detector over one mid-size fleet, next to the same-run
// reference count over the readings each phase reads (every consumer's
// training span for the fit, its scored week for the score).  The derived
// section pins each family's rate as a ratio to that reference, so a
// family that fits or scores more than the gate's tolerance slower fails
// CI even though absolute rates vary per machine, and no family's speedup
// reads as another's regression.
struct DetectorPoint {
  std::string name;
  double fit_per_s = 0.0;
  double score_per_s = 0.0;
};

struct DetectorFamilies {
  std::vector<DetectorPoint> points;
  DetectorPoint reference;  // the reference pass, in the same units
};

DetectorFamilies run_detector_families(std::size_t max_consumers,
                                       std::size_t weeks, std::uint64_t seed) {
  const std::size_t consumers = std::min<std::size_t>(2000, max_consumers);
  const auto dataset = fdeta::datagen::small_dataset(consumers, weeks, seed);
  const fdeta::meter::TrainTestSplit split{.train_weeks = weeks - 1,
                                           .test_weeks = 1};
  const fdeta::core::EvidenceCalendar calendar;

  std::printf(
      "\n=== detector families @%zu consumers: fit / weekly-score "
      "consumers/s (serial) ===\n",
      consumers);
  std::printf("%10s | %12s %12s\n", "detector", "fit", "score");

  const auto names = fdeta::core::registered_detector_names();
  fdeta::obs::MetricsRegistry reg;
  std::vector<fdeta::core::FdetaPipeline> pipelines;
  pipelines.reserve(names.size());
  for (const std::string_view name : names) {
    fdeta::core::PipelineConfig config;
    config.split = split;
    config.detector = std::string(name);
    config.threads = 1;  // serial: ratios must measure the detector, not
                         // the pool scheduler's run-to-run mood
    config.metrics = &reg;
    pipelines.emplace_back(config);
  }
  const auto train_of = [&](std::size_t c) {
    return split.train(dataset.consumer(c));
  };
  const auto week_of = [&](std::size_t c) {
    return dataset.consumer(c).week(weeks - 1);
  };

  // Best-of-N on both phases, with the rounds interleaved round-robin
  // across families and the reference: the derived ratios divide one rate
  // by another, so slow machine drift (frequency scaling, a noisy
  // neighbour) must hit every family and the reference in every round, not
  // whichever happened to be measured last.  The minimum is the right
  // estimator for the deterministic cost, as in the tracing stage.  Slot d
  // == names.size() is the reference.
  const std::size_t rounds = 5;
  const std::size_t slots = names.size() + 1;
  std::vector<double> fit_s(slots, 1e300);
  std::vector<double> score_s(slots, 1e300);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t d = 0; d < slots; ++d) {
      double elapsed = 0.0;
      if (d == names.size()) {
        elapsed = reference_count_seconds(consumers, train_of);
      } else {
        const auto start = std::chrono::steady_clock::now();
        pipelines[d].fit(dataset);
        elapsed = seconds_since(start);
      }
      fit_s[d] = std::min(fit_s[d], elapsed);
    }
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t d = 0; d < slots; ++d) {
      // One weekly sweep of a fast family is ~a millisecond here, below
      // timer/scheduler noise; batch sweeps until the sample spans >=30ms.
      std::size_t sweeps = 0;
      double elapsed = 0.0;
      const auto start = std::chrono::steady_clock::now();
      do {
        if (d == names.size()) {
          reference_count_seconds(consumers, week_of);
        } else {
          const auto report = pipelines[d].evaluate_week(dataset, dataset,
                                                         weeks - 1, calendar);
          if (report.verdicts.size() != consumers) std::abort();
        }
        ++sweeps;
        elapsed = seconds_since(start);
      } while (elapsed < 0.03);
      score_s[d] = std::min(score_s[d], elapsed / static_cast<double>(sweeps));
    }
  }

  DetectorFamilies out;
  for (std::size_t d = 0; d < slots; ++d) {
    DetectorPoint p;
    p.name = d == names.size() ? "reference" : std::string(names[d]);
    p.fit_per_s = static_cast<double>(consumers) / fit_s[d];
    p.score_per_s = static_cast<double>(consumers) / score_s[d];
    std::printf("%10s | %12.0f %12.0f\n", p.name.c_str(), p.fit_per_s,
                p.score_per_s);
    if (d == names.size()) {
      out.reference = std::move(p);
    } else {
      out.points.push_back(std::move(p));
    }
  }
  return out;
}

// Feeder-aggregation stage: the same pooled weekly sweep with the feeder
// hierarchy layer off vs on over one random radial topology.  The hierarchy
// sweep adds step-5 balance investigation plus per-node aggregate scoring
// and sibling-group correlation.  The gated row divides the hierarchy
// sweep's rate by the pooled reference pass over the same weeks, so a
// hierarchy change that makes the weekly sweep more expensive fails CI,
// while a faster detector kernel, which speeds up the plain sweep more
// than the feeder layer, moves no row the wrong way.  The feeder / plain
// ratio (the hierarchy tax) is printed beside it.
struct HierarchyOverhead {
  std::size_t consumers = 0;
  std::size_t nodes = 0;  // internal nodes scored by the feeder layer
  double plain_consumers_per_s = 0.0;
  double feeder_consumers_per_s = 0.0;
  double reference_consumers_per_s = 0.0;  // pooled reference pass
  double ratio = 0.0;  // feeder rate / plain rate (<= 1)
};

HierarchyOverhead run_hierarchy_overhead(std::size_t max_consumers,
                                         std::size_t weeks,
                                         std::uint64_t seed) {
  const std::size_t consumers = std::min<std::size_t>(10000, max_consumers);
  const auto dataset = fdeta::datagen::small_dataset(consumers, weeks, seed);
  const fdeta::meter::TrainTestSplit split{.train_weeks = weeks - 1,
                                           .test_weeks = 1};
  const fdeta::core::EvidenceCalendar calendar;
  fdeta::Rng rng(seed);
  const auto topology =
      fdeta::grid::Topology::random_radial(consumers, 4, rng, 0.02);

  fdeta::obs::MetricsRegistry reg;
  HierarchyOverhead out;
  out.consumers = consumers;

  // Best-of-N batched sweeps, as in the detector stage: the derived ratio
  // divides one rate by another, so every side needs the same noise
  // discipline.
  const std::size_t rounds = 3;
  for (const bool hierarchy : {false, true}) {
    fdeta::core::PipelineConfig config;
    config.split = split;
    config.hierarchy = hierarchy;
    config.metrics = &reg;
    fdeta::core::FdetaPipeline pipeline(config);
    pipeline.fit(dataset);

    const fdeta::grid::Topology* topo = hierarchy ? &topology : nullptr;
    // Warm once outside the clock: the first hierarchy sweep lazily fits
    // the feeder monitor's per-node baselines and calibration.
    {
      const auto report =
          pipeline.evaluate_week(dataset, dataset, weeks - 1, calendar, topo);
      if (hierarchy) {
        if (!report.feeder.has_value()) std::abort();
        out.nodes = report.feeder->nodes.size();
      }
    }

    const double sweep_s = best_batched_seconds(rounds, [&] {
      const auto report =
          pipeline.evaluate_week(dataset, dataset, weeks - 1, calendar, topo);
      if (report.verdicts.size() != consumers) std::abort();
    });
    (hierarchy ? out.feeder_consumers_per_s : out.plain_consumers_per_s) =
        static_cast<double>(consumers) / sweep_s;
  }
  out.ratio = out.feeder_consumers_per_s / out.plain_consumers_per_s;
  const auto week_of = [&](std::size_t c) {
    return dataset.consumer(c).week(weeks - 1);
  };
  out.reference_consumers_per_s =
      static_cast<double>(consumers) /
      best_batched_seconds(
          rounds, [&] { pooled_reference_count_seconds(consumers, week_of); });

  std::printf(
      "\n=== feeder aggregation @%zu consumers (%zu internal nodes): sweep "
      "%.0f consumers/s plain, %.0f with --hierarchy (%.2fx of plain, "
      "%.2fx of the pooled reference pass) ===\n",
      out.consumers, out.nodes, out.plain_consumers_per_s,
      out.feeder_consumers_per_s, out.ratio,
      out.feeder_consumers_per_s / out.reference_consumers_per_s);
  return out;
}

double hist_sum(const fdeta::obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

void print_breakdown(std::size_t consumers,
                     const fdeta::obs::MetricsSnapshot& snap,
                     const fdeta::obs::MetricsSnapshot& pool_before,
                     const fdeta::obs::MetricsSnapshot& pool_after) {
  std::printf(
      "          | stages @%zu: fit consumers=%llu thresholds=%llu "
      "(%.3fs) | score weeks=%llu verdicts=%llu anomalous=%llu (%.3fs) | "
      "ingest readings=%llu scored=%llu alerts=%llu (%.3fs)\n",
      consumers,
      static_cast<unsigned long long>(snap.counter("pipeline.consumers_fitted")),
      static_cast<unsigned long long>(
          snap.counter("pipeline.thresholds_recomputed")),
      hist_sum(snap, "pipeline.fit_seconds"),
      static_cast<unsigned long long>(snap.counter("pipeline.weeks_scored")),
      static_cast<unsigned long long>(snap.counter("pipeline.verdicts")),
      static_cast<unsigned long long>(
          snap.counter("pipeline.verdicts") -
          snap.counter("pipeline.verdict_normal")),
      hist_sum(snap, "pipeline.evaluate_seconds"),
      static_cast<unsigned long long>(
          snap.counter("monitor.readings_ingested")),
      static_cast<unsigned long long>(snap.counter("monitor.scores_evaluated")),
      static_cast<unsigned long long>(snap.counter("monitor.alerts_raised")),
      hist_sum(snap, "monitor.ingest_batch_seconds"));
  std::printf(
      "          | pool @%zu: +tasks=%llu (completed +%llu) "
      "queue_highwater=%lld\n",
      consumers,
      static_cast<unsigned long long>(
          pool_after.counter("pool.tasks_submitted") -
          pool_before.counter("pool.tasks_submitted")),
      static_cast<unsigned long long>(
          pool_after.counter("pool.tasks_completed") -
          pool_before.counter("pool.tasks_completed")),
      static_cast<long long>(pool_after.gauge("pool.queue_depth_highwater")));
}

// Tracing tax: the same pooled evaluate_week sweep with the span tracer off
// vs on.  The enabled overhead must stay under FDETA_TRACE_BUDGET (relative,
// default 5%) plus a 2ms absolute allowance for tiny populations where one
// scheduler hiccup dominates the relative number.  Aborts on a blown budget
// so the CI smoke lane enforces it.
void run_tracing_overhead(std::size_t max_consumers, std::size_t weeks,
                          std::uint64_t seed) {
  const std::size_t consumers = std::min<std::size_t>(10000, max_consumers);
  const double budget = fdeta::env_double("FDETA_TRACE_BUDGET", 0.05);
  const auto dataset = fdeta::datagen::small_dataset(consumers, weeks, seed);
  const fdeta::meter::TrainTestSplit split{.train_weeks = weeks - 1,
                                           .test_weeks = 1};
  const fdeta::core::EvidenceCalendar calendar;

  fdeta::obs::MetricsRegistry reg;
  fdeta::core::PipelineConfig config;
  config.split = split;
  config.metrics = &reg;
  fdeta::core::FdetaPipeline pipeline(config);
  pipeline.fit(dataset);

  auto sweep_seconds = [&] {
    const auto start = std::chrono::steady_clock::now();
    const auto report =
        pipeline.evaluate_week(dataset, dataset, weeks - 1, calendar);
    if (report.verdicts.size() != consumers) std::abort();
    return seconds_since(start);
  };

  // Best-of-N on both sides: we are comparing code paths, not machines, so
  // the minimum is the right estimator for the deterministic cost.
  const std::size_t rounds = 5;
  fdeta::obs::Tracer& tracer = fdeta::obs::Tracer::instance();
  double off_s = 1e300;
  sweep_seconds();  // warm the caches once before either side measures
  for (std::size_t r = 0; r < rounds; ++r) {
    off_s = std::min(off_s, sweep_seconds());
  }
  double on_s = 1e300;
  tracer.enable(/*ring_capacity=*/1 << 16);
  for (std::size_t r = 0; r < rounds; ++r) {
    on_s = std::min(on_s, sweep_seconds());
  }
  tracer.disable();

  bool saw_sweep_span = false;
  for (const auto& event : tracer.collect()) {
    if (std::strcmp(event.name, "pipeline.evaluate_week") == 0) {
      saw_sweep_span = true;
    }
  }
  if (!saw_sweep_span) {
    std::fprintf(stderr,
                 "tracing overhead stage captured no pipeline.evaluate_week "
                 "span\n");
    std::abort();
  }

  const double overhead = on_s / off_s - 1.0;
  std::printf(
      "\n=== tracing overhead @%zu consumers: sweep off %.4fs, on %.4fs "
      "(%+.2f%%, budget %.0f%% + 2ms) ===\n",
      consumers, off_s, on_s, overhead * 100.0, budget * 100.0);
  if (on_s > off_s * (1.0 + budget) + 0.002) {
    std::fprintf(stderr, "tracing overhead blew the budget\n");
    std::abort();
  }
}

// Scrape tax: one telemetry frame (refresh_health_gauges + registry
// snapshot + delta-frame derivation) costs a bounded slice of the ingest
// work it summarises.  A scraper fires once per interval, so the budget is
// relative to ingesting one interval's readings: scrape must stay under
// FDETA_SCRAPE_BUDGET (default 5%) of the interval's ingest time, plus a
// 2ms absolute allowance for tiny smoke populations.  Aborts on a blown
// budget so the CI smoke lane enforces it — same discipline as the tracer.
struct ScrapeOverhead {
  double ingest_interval_s = 0.0;
  double scrape_s = 0.0;
  double overhead = 0.0;  ///< scrape_s / ingest_interval_s
};

ScrapeOverhead run_scrape_overhead(std::size_t max_consumers,
                                   std::size_t weeks, std::uint64_t seed) {
  const std::size_t consumers = std::min<std::size_t>(10000, max_consumers);
  const double budget = fdeta::env_double("FDETA_SCRAPE_BUDGET", 0.05);
  const std::size_t interval_slots = 168;  // half a week per frame
  const auto dataset = fdeta::datagen::small_dataset(consumers, weeks, seed);
  const fdeta::meter::TrainTestSplit split{.train_weeks = weeks - 1,
                                           .test_weeks = 1};

  fdeta::obs::MetricsRegistry reg;
  fdeta::core::OnlineMonitorConfig config;
  config.metrics = &reg;
  fdeta::core::OnlineMonitor monitor(config);
  monitor.fit(dataset, split);

  // One scrape interval's worth of readings, slot-major like a head-end.
  std::vector<fdeta::core::Reading> batch;
  batch.reserve(consumers * interval_slots);
  const std::size_t first = split.train_weeks * fdeta::kSlotsPerWeek;
  for (std::size_t s = first; s < first + interval_slots; ++s) {
    for (std::size_t c = 0; c < consumers; ++c) {
      batch.push_back(fdeta::core::Reading{
          c, static_cast<fdeta::SlotIndex>(s), dataset.consumer(c).readings[s],
          false});
    }
  }

  fdeta::obs::MetricsScraper scraper(
      {.registry = &reg, .interval_slots = interval_slots});
  scraper.start(first);

  // Best-of-N on both sides (code paths, not machines; the minimum is the
  // right estimator).  Re-ingesting the same interval keeps per-consumer
  // state hot without growing it, and each scrape advances the slot clock
  // so every frame is a real delta frame.
  const std::size_t rounds = 5;
  double ingest_s = 1e300;
  double scrape_s = 1e300;
  std::uint64_t slot = first;
  monitor.ingest_batch(batch);  // warm caches before either side measures
  for (std::size_t r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    monitor.ingest_batch(batch);
    ingest_s = std::min(ingest_s, seconds_since(start));

    slot += interval_slots;
    start = std::chrono::steady_clock::now();
    monitor.refresh_health_gauges();
    const fdeta::obs::SeriesFrame& frame = scraper.scrape(slot);
    scrape_s = std::min(scrape_s, seconds_since(start));
    if (frame.counter_deltas.count("monitor.readings_ingested") == 0) {
      std::abort();  // the frame must carry the monitor's counters
    }
  }

  ScrapeOverhead result;
  result.ingest_interval_s = ingest_s;
  result.scrape_s = scrape_s;
  result.overhead = scrape_s / ingest_s;
  std::printf(
      "\n=== scrape overhead @%zu consumers: ingest %zu slots %.4fs, "
      "frame %.5fs (%.2f%% of interval, budget %.0f%% + 2ms) ===\n",
      consumers, interval_slots, ingest_s, scrape_s,
      result.overhead * 100.0, budget * 100.0);
  if (scrape_s > ingest_s * budget + 0.002) {
    std::fprintf(stderr, "telemetry scrape blew the overhead budget\n");
    std::abort();
  }
  return result;
}

// Degradation lane: detection recall and false-positive rate versus AMI
// loss rate, with and without the NACK retransmit pass.  Every 10th
// consumer under-reports its readings through a MITM interceptor; the
// reported dataset is whatever the head-end collected after the fault
// plan's losses, and weeks past the coverage gate return
// kInsufficientData instead of a score (gated consumers are neither
// recall hits nor false positives - they are visible in the gated column).
void run_degradation(std::size_t max_consumers, std::size_t weeks,
                     std::uint64_t seed) {
  const std::size_t consumers = std::min<std::size_t>(200, max_consumers);
  const auto dataset = fdeta::datagen::small_dataset(consumers, weeks, seed);
  const fdeta::meter::TrainTestSplit split{.train_weeks = weeks - 1,
                                           .test_weeks = 1};
  const fdeta::core::EvidenceCalendar calendar;
  const std::size_t week = weeks - 1;

  fdeta::obs::MetricsRegistry reg;
  fdeta::core::PipelineConfig config;
  config.split = split;
  config.metrics = &reg;
  fdeta::core::FdetaPipeline pipeline(config);
  pipeline.fit(dataset);

  std::printf(
      "\n=== degradation @%zu consumers: recall / false positives vs loss "
      "rate (gate %.0f%% missing) ===\n",
      consumers, 100.0 * config.max_missing_fraction);
  std::printf("%7s %8s | %7s %7s %7s | %10s %8s\n", "loss", "retries",
              "recall", "fpr", "gated", "missing", "retx");
  for (const double loss : {0.0, 0.05, 0.10, 0.20}) {
    for (const std::size_t retries : {std::size_t{0}, std::size_t{3}}) {
      if (loss == 0.0 && retries > 0) continue;  // nothing to repair
      fdeta::ami::HeadEnd head_end(consumers, dataset.slot_count(), &reg);
      fdeta::ami::MeterNetwork network(dataset, &reg);
      for (std::size_t c = 0; c < consumers; c += 10) {
        network.add_interceptor(fdeta::ami::scale_interceptor(c, 0.25));
      }
      fdeta::ami::FaultPlanConfig plan;
      plan.drop_rate = loss;
      plan.seed = seed;
      network.set_fault_plan(fdeta::ami::FaultPlan(plan));
      network.set_retransmit({retries, 1});
      fdeta::ami::CollectedReport collected(dataset);
      for (std::size_t w = 0; w < weeks; ++w) {
        const fdeta::SlotIndex first = w * kSlotsPerWeek;
        network.transmit(head_end, first, first + kSlotsPerWeek);
        fdeta::ami::collect_reported(head_end, first, first + kSlotsPerWeek,
                                     collected);
      }

      fdeta::core::WeekCoverage coverage;
      coverage.missing_slots = collected.week_missing(week);
      const auto report = pipeline.evaluate_week(
          dataset, collected.dataset, week, calendar, nullptr, &coverage);

      std::size_t attacked = 0, hits = 0, clean = 0, false_pos = 0, gated = 0;
      for (std::size_t c = 0; c < consumers; ++c) {
        const auto status = report.verdicts[c].status;
        if (status == fdeta::core::VerdictStatus::kInsufficientData) {
          ++gated;
          continue;
        }
        const bool flagged =
            status != fdeta::core::VerdictStatus::kNormal &&
            status != fdeta::core::VerdictStatus::kExcused;
        if (c % 10 == 0) {
          ++attacked;
          if (flagged) ++hits;
        } else {
          ++clean;
          if (flagged) ++false_pos;
        }
      }
      std::printf(
          "%6.0f%% %8zu | %6.1f%% %6.1f%% %6.1f%% | %10zu %8zu\n",
          100.0 * loss, retries,
          attacked > 0 ? 100.0 * static_cast<double>(hits) /
                             static_cast<double>(attacked)
                       : 0.0,
          clean > 0 ? 100.0 * static_cast<double>(false_pos) /
                          static_cast<double>(clean)
                    : 0.0,
          100.0 * static_cast<double>(gated) /
              static_cast<double>(consumers),
          head_end.missing_count(), network.messages_retried());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* bench_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--bench-out") == 0 && i + 1 < argc) {
      bench_out = argv[++i];
    }
  }
  std::size_t max_consumers = fdeta::env_size("FDETA_FLEET_MAX", 50000);
  if (smoke && max_consumers > 1000) max_consumers = 1000;
  const std::size_t weeks = fdeta::env_size("FDETA_FLEET_WEEKS", 9);
  const auto seed =
      static_cast<std::uint64_t>(fdeta::env_size("FDETA_SEED", 20160628));
  const std::size_t feed_threads =
      std::max<std::size_t>(2, fdeta::env_size("FDETA_FLEET_THREADS", 8));
  std::size_t mega = fdeta::env_size("FDETA_FLEET_MEGA", 1000000);
  if (smoke) mega = std::min<std::size_t>(mega, 10000);

  fdeta::bench::BenchJson report;
  report.set("bench", "micro_fleet_scale");
  report.set("git_rev", fdeta::bench::git_revision());
  report.set("smoke", smoke);
  report.set("hardware_threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  report.set("pool_workers", fdeta::shared_pool().thread_count());
  report.set("weeks", weeks);
  report.set("seed", static_cast<std::size_t>(seed));

  const PoolWarmUp warm_up = warm_pool();
  std::printf(
      "pool warm-up: %s at width %zu after %zu rounds (%.3fs, untimed)\n",
      warm_up.full_width ? "ran" : "did NOT reach full width",
      warm_up.width, warm_up.rounds, warm_up.seconds);
  report.set("pool_warmup_full_width", warm_up.full_width);
  report.set("pool_warmup_rounds", warm_up.rounds);

  std::printf("\n=== fleet scale: consumers/sec, serial vs shared pool (%zu "
              "workers) ===\n",
              fdeta::shared_pool().thread_count());
  std::printf("%9s | %11s %11s %7s | %12s %12s %7s | %14s\n", "consumers",
              "fit ser", "fit pool", "speedup", "score ser", "score pool",
              "speedup", "ingest rdgs/s");
  fdeta::bench::BenchJson scales;
  FleetTimings top;  // largest completed scale feeds the derived ratios
  std::size_t top_consumers = 0;
  for (const std::size_t consumers : {std::size_t{1000}, std::size_t{10000},
                                      std::size_t{50000}}) {
    if (consumers > max_consumers) continue;
    fdeta::obs::MetricsRegistry reg;
    const auto pool_before = fdeta::obs::default_registry().snapshot();
    const auto t = run_scale(consumers, weeks, seed, reg);
    const auto pool_after = fdeta::obs::default_registry().snapshot();
    std::printf("%9zu | %11.0f %11.0f %6.2fx | %12.0f %12.0f %6.2fx | %14.0f\n",
                consumers, t.fit_serial, t.fit_pooled,
                t.fit_pooled / t.fit_serial, t.score_serial, t.score_pooled,
                t.score_pooled / t.score_serial, t.batch_pooled);
    std::printf(
        "          | warm-start @%zu: cold fit %.3fs, restore %.5fs "
        "(%.1fx faster; reference pass %.5fs), %.1f MB model, %.0f "
        "consumers/s\n",
        consumers, t.cold_fit_s, t.warm_restore_s,
        t.cold_fit_s / t.warm_restore_s, t.restore_reference_s,
        static_cast<double>(t.model_bytes) / (1024.0 * 1024.0),
        static_cast<double>(consumers) / t.warm_restore_s);
    std::printf(
        "          | pooled reference pass @%zu: %.0f consumers/s (pooled "
        "sweep %.2fx of it)\n",
        consumers, t.score_reference, t.score_pooled / t.score_reference);
    print_breakdown(consumers, reg.snapshot(), pool_before, pool_after);

    fdeta::bench::BenchJson row;
    row.set("consumers", consumers);
    row.set("fit_serial_consumers_per_s", t.fit_serial);
    row.set("fit_pooled_consumers_per_s", t.fit_pooled);
    row.set("score_serial_consumers_per_s", t.score_serial);
    row.set("score_pooled_consumers_per_s", t.score_pooled);
    row.set("score_reference_consumers_per_s", t.score_reference);
    row.set("ingest_batch_readings_per_s", t.batch_pooled);
    row.set("cold_fit_s", t.cold_fit_s);
    row.set("warm_restore_s", t.warm_restore_s);
    row.set("restore_reference_s", t.restore_reference_s);
    row.set("model_bytes", t.model_bytes);
    scales.push_back(std::move(row));
    top = t;
    top_consumers = consumers;
  }
  report.set("scales", std::move(scales));

  const auto families = run_detector_families(max_consumers, weeks, seed);
  fdeta::bench::BenchJson detectors_json;
  for (const DetectorPoint& p : families.points) {
    fdeta::bench::BenchJson row;
    row.set("detector", p.name);
    row.set("fit_consumers_per_s", p.fit_per_s);
    row.set("score_consumers_per_s", p.score_per_s);
    detectors_json.push_back(std::move(row));
  }
  report.set("detectors", std::move(detectors_json));
  fdeta::bench::BenchJson reference_json;
  reference_json.set("fit_consumers_per_s", families.reference.fit_per_s);
  reference_json.set("score_consumers_per_s",
                     families.reference.score_per_s);
  report.set("detector_reference", std::move(reference_json));

  const HierarchyOverhead hierarchy =
      run_hierarchy_overhead(max_consumers, weeks, seed);
  fdeta::bench::BenchJson hierarchy_json;
  hierarchy_json.set("consumers", hierarchy.consumers);
  hierarchy_json.set("internal_nodes", hierarchy.nodes);
  hierarchy_json.set("plain_sweep_consumers_per_s",
                     hierarchy.plain_consumers_per_s);
  hierarchy_json.set("feeder_sweep_consumers_per_s",
                     hierarchy.feeder_consumers_per_s);
  hierarchy_json.set("reference_consumers_per_s",
                     hierarchy.reference_consumers_per_s);
  report.set("hierarchy", std::move(hierarchy_json));

  const auto points =
      run_shard_scaling(max_consumers, weeks, seed, feed_threads);
  fdeta::bench::BenchJson shard_json;
  double rate_global = 0.0, rate_sharded = 0.0;
  for (const ShardPoint& p : points) {
    fdeta::bench::BenchJson row;
    row.set("shards", p.shards);
    row.set("feed_threads", p.threads);
    row.set("readings_per_s", p.readings_per_s);
    shard_json.push_back(std::move(row));
    if (p.threads == feed_threads) {
      (p.shards == 1 ? rate_global : rate_sharded) = p.readings_per_s;
    }
  }
  report.set("shard_scaling", std::move(shard_json));

  fdeta::bench::BenchJson mega_json;
  MegaResult mega_result;
  if (mega > 0) {
    mega_result = run_mega(mega, weeks, seed);
    mega_json.set("consumers", mega_result.consumers);
    mega_json.set("shard_count", mega_result.shard_count);
    mega_json.set("fit_s", mega_result.fit_s);
    mega_json.set("fit_consumers_per_s", mega_result.fit_consumers_per_s);
    mega_json.set("ingest_readings_per_s",
                  mega_result.ingest_readings_per_s);
    mega_json.set("save_s", mega_result.save_s);
    mega_json.set("warm_restore_s", mega_result.restore_s);
    mega_json.set("restore_reference_s", mega_result.restore_reference_s);
    mega_json.set("checkpoint_bytes", mega_result.checkpoint_bytes);
    report.set("mega_fleet", std::move(mega_json));
  }

  // Derived ratios: same-run comparisons, so they transfer across machines
  // far better than the absolute rates above - these are what
  // tools/bench_compare.py gates on.  A row that a faster detector kernel or
  // fit could move the wrong way is gated on a reference pass instead: a
  // restore on one over its own bytes (a faster fit is not a slower
  // restore), the pooled and the hierarchy sweeps on the pooled one over
  // their weeks (a faster kernel leaves the pool's fixed costs a bigger
  // share of the pooled sweep and the feeder layer a bigger share of the
  // hierarchy sweep, which would read as a slower pool and a costlier
  // feeder layer).
  fdeta::bench::BenchJson derived;
  if (top_consumers > 0) {
    derived.set("fit_pool_speedup", top.fit_pooled / top.fit_serial);
    derived.set("score_pooled_vs_reference",
                top.score_pooled / top.score_reference);
    derived.set("warm_restore_vs_reference",
                top.restore_reference_s / top.warm_restore_s);
  }
  if (rate_global > 0.0 && rate_sharded > 0.0) {
    derived.set("shard_contention_speedup", rate_sharded / rate_global);
  }
  if (hierarchy.reference_consumers_per_s > 0.0) {
    derived.set("hierarchy_sweep_vs_reference",
                hierarchy.feeder_consumers_per_s /
                    hierarchy.reference_consumers_per_s);
  }
  if (mega > 0 && mega_result.restore_s > 0.0) {
    derived.set("mega_restore_vs_reference",
                mega_result.restore_reference_s / mega_result.restore_s);
  }
  // Per-family throughput relative to the reference pass from the same
  // run: a newly registered (or regressed) detector that fits or scores
  // more than the tolerance slower than its committed ratio fails the gate,
  // and one family's speedup moves no other family's row.
  for (const DetectorPoint& p : families.points) {
    std::string key = p.name;
    std::replace(key.begin(), key.end(), '-', '_');
    derived.set("detector_fit_vs_reference_" + key,
                p.fit_per_s / families.reference.fit_per_s);
    derived.set("detector_score_vs_reference_" + key,
                p.score_per_s / families.reference.score_per_s);
  }
  report.set("derived", std::move(derived));

  run_degradation(max_consumers, weeks, seed);
  run_tracing_overhead(max_consumers, weeks, seed);
  const ScrapeOverhead scrape = run_scrape_overhead(max_consumers, weeks,
                                                    seed);
  // Recorded for the trajectory, never gated by bench_compare (absolute
  // times measure the machine); the 5% budget above is the enforced bound.
  fdeta::bench::BenchJson scrape_json;
  scrape_json.set("ingest_interval_s", scrape.ingest_interval_s);
  scrape_json.set("frame_s", scrape.scrape_s);
  scrape_json.set("overhead_fraction", scrape.overhead);
  report.set("scrape_overhead", std::move(scrape_json));

  if (bench_out != nullptr) report.write_file(bench_out);
  return 0;
}
