// Reproduces Fig. 3: the three attack-vector injections for one mid-size
// consumer (the paper illustrates Consumer 1330).  Emits the actual week and
// each attack vector as CSV series (one row per half-hour slot) so they can
// be plotted, plus summary statistics matching the figure's captions.
//
//   (a) Attack Class 1B   - Integrated ARIMA attack over-reporting a victim
//   (b) Attack Class 2A/2B - the same attack under-reporting Mallory
//   (c) Attack Class 3A/3B - the Optimal Swap attack

#include <algorithm>
#include <cstdio>

#include "attack/arima_attack.h"
#include "attack/integrated_arima_attack.h"
#include "attack/optimal_swap.h"
#include "bench/bench_util.h"
#include "eval/arima_detector.h"
#include "meter/weekly_stats.h"
#include "pricing/billing.h"
#include "stats/descriptive.h"

using namespace fdeta;

int main() {
  const auto scale = bench::Scale::from_env();
  // A single consumer suffices for the illustration: pick a mid-size SME-ish
  // profile by scanning a small population for the second-largest consumer
  // (the paper's Consumer 1330 anecdote).
  const auto dataset = datagen::small_dataset(40, 74, scale.seed);
  std::size_t chosen = 0;
  std::vector<std::pair<double, std::size_t>> by_mean;
  for (std::size_t i = 0; i < dataset.consumer_count(); ++i) {
    by_mean.emplace_back(stats::mean(dataset.consumer(i).readings), i);
  }
  std::sort(by_mean.rbegin(), by_mean.rend());
  chosen = by_mean[1].second;  // second largest, like Consumer 1330

  const auto& series = dataset.consumer(chosen);
  const meter::TrainTestSplit split{.train_weeks = 60, .test_weeks = 14};
  const auto train = split.train(series);
  const auto clean = split.test_week(series, 0);

  core::ArimaDetector detector;
  detector.fit(train);
  const auto& model = detector.model();
  const auto history = train.subspan(train.size() - 2 * kSlotsPerWeek);
  const auto wstats = meter::weekly_stats(train);
  Rng rng(scale.seed);

  attack::IntegratedAttackConfig over;
  over.over_report = true;
  const auto vec_1b = attack::integrated_arima_attack_vector(
      model, history, wstats, kSlotsPerWeek, rng, over);

  attack::IntegratedAttackConfig under;
  under.over_report = false;
  const auto vec_2ab = attack::integrated_arima_attack_vector(
      model, history, wstats, kSlotsPerWeek, rng, under);

  const auto tou = pricing::nightsaver();
  attack::OptimalSwapConfig swap_cfg;
  swap_cfg.violation_budget = detector.violation_threshold();
  const auto swap =
      attack::optimal_swap_attack(clean, tou, 0, &model, history, swap_cfg);

  std::printf("# Fig. 3 reproduction, consumer %u (2nd largest of %zu)\n",
              series.id, dataset.consumer_count());
  std::printf("# (a) 1B: victim's week mean %.3f -> %.3f kW "
              "(training weekly-mean max %.3f)\n",
              stats::mean(clean), stats::mean(vec_1b), wstats.mean_hi);
  std::printf("# (b) 2A/2B: Mallory's week mean %.3f -> %.3f kW "
              "(training weekly-mean min %.3f)\n",
              stats::mean(clean), stats::mean(vec_2ab), wstats.mean_lo);
  std::printf("# (c) 3A/3B: %zu swaps (%zu reverted for CI safety), "
              "profit $%.2f, mean unchanged (%.3f vs %.3f)\n",
              swap.swaps.size(), swap.reverted,
              pricing::attacker_profit(clean, swap.reported, tou),
              stats::mean(clean), stats::mean(swap.reported));
  std::printf("# stolen energy: 1B %.1f kWh to victim, 2A/2B %.1f kWh "
              "under-reported\n",
              pricing::energy(vec_1b) - pricing::energy(clean),
              pricing::energy(clean) - pricing::energy(vec_2ab));

  std::printf("slot,actual_kw,attack_1b_kw,attack_2a2b_kw,attack_3a3b_kw\n");
  for (std::size_t t = 0; t < static_cast<std::size_t>(kSlotsPerWeek); ++t) {
    std::printf("%zu,%.4f,%.4f,%.4f,%.4f\n", t, clean[t], vec_1b[t],
                vec_2ab[t], swap.reported[t]);
  }
  return 0;
}
