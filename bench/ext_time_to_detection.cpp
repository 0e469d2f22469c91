// Extension: time-to-detection via the sliding week vector (Section VII-D).
//
// The paper argues the week-long window does NOT mean week-long latency:
// the week vector is primed with trusted history and each new reading
// replaces one slot, so "if the week vector contains sufficiently anomalous
// readings right at the beginning, it may appear anomalous before a full
// week of new data has been collected" (the ref [3] methodology).  This
// bench measures the latency distribution for the 1B and 2A/2B Integrated
// ARIMA attacks.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/kld_detector.h"
#include "eval/time_to_detection.h"
#include "stats/quantile.h"

using namespace fdeta;

namespace {

void report(const char* label, std::vector<double>& latencies,
            std::size_t undetected, std::size_t total) {
  if (latencies.empty()) {
    std::printf("%-22s no detections out of %zu consumers\n", label, total);
    return;
  }
  std::sort(latencies.begin(), latencies.end());
  const double med = stats::quantile_sorted(latencies, 0.5);
  const double p90 = stats::quantile_sorted(latencies, 0.9);
  std::printf("%-22s median %5.1f h   90th pct %6.1f h   max %6.1f h   "
              "undetected %zu/%zu\n",
              label, med * kHoursPerSlot, p90 * kHoursPerSlot,
              latencies.back() * kHoursPerSlot, undetected, total);
}

}  // namespace

int main() {
  const auto scale = bench::Scale::from_env();
  const std::size_t consumers = std::min<std::size_t>(scale.consumers, 200);
  const auto dataset = datagen::small_dataset(consumers, 74, scale.seed);
  const meter::TrainTestSplit split{.train_weeks = 60, .test_weeks = 14};

  std::printf("Time-to-detection (sliding week vector), %zu consumers, "
              "KLD B = 10, alpha = 10%%\n",
              consumers);
  std::printf("upper bound by construction: one week = 168 h\n\n");

  std::vector<std::optional<std::size_t>> lat_over(consumers);
  std::vector<std::optional<std::size_t>> lat_under(consumers);
  std::vector<char> skipped(consumers, 0);

  parallel_for(consumers, [&](std::size_t i) {
    try {
      const auto& series = dataset.consumer(i);
      const auto artifacts = bench::make_artifacts(series, split,
                                                   /*vectors=*/1, scale.seed);
      core::KldDetector kld({.bins = 10, .significance = 0.10});
      kld.fit(artifacts.train);
      // Trusted reference: the last training week.
      const std::span<const Kw> reference{
          artifacts.train.data() + artifacts.train.size() - kSlotsPerWeek,
          static_cast<std::size_t>(kSlotsPerWeek)};

      lat_over[i] = core::time_to_detection(kld, reference,
                                            artifacts.attack_vectors.front());

      // Under-report vector (2A/2B) built the same way.
      core::ArimaDetector arima;
      arima.fit(artifacts.train);
      const std::span<const Kw> train_span = artifacts.train;
      const auto history =
          train_span.subspan(train_span.size() - 2 * kSlotsPerWeek);
      const auto wstats = meter::weekly_stats(train_span);
      Rng rng = Rng(scale.seed).spawn(series.id + 1000000);
      attack::IntegratedAttackConfig cfg;
      cfg.over_report = false;
      const auto under = attack::integrated_arima_attack_vector(
          arima.model(), history, wstats, kSlotsPerWeek, rng, cfg);
      lat_under[i] = core::time_to_detection(kld, reference, under);
    } catch (const std::exception&) {
      skipped[i] = 1;
    }
  });

  std::vector<double> over, under;
  std::size_t over_miss = 0, under_miss = 0, total = 0;
  for (std::size_t i = 0; i < consumers; ++i) {
    if (skipped[i]) continue;
    ++total;
    if (lat_over[i]) {
      over.push_back(static_cast<double>(*lat_over[i]));
    } else {
      ++over_miss;
    }
    if (lat_under[i]) {
      under.push_back(static_cast<double>(*lat_under[i]));
    } else {
      ++under_miss;
    }
  }
  report("1B (over-report):", over, over_miss, total);
  report("2A/2B (under-report):", under, under_miss, total);
  std::printf("\nlitigation framing (Section VII-D): even the worst case is "
              "bounded by one week; fines typically exceed a week of stolen "
              "electricity.\n");
  return 0;
}
