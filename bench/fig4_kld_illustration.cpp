// Reproduces Fig. 4: the KLD detector's internals for one consumer.
//   (a) the X distribution (all training readings), the X_1 distribution
//       (first training week), and the Attack-Class-1B week's distribution,
//       over the same frozen 10-bin edges;
//   (b) the KLD distribution {K_i} with its 90th and 95th percentile
//       thresholds and the attack week's divergence K_A.
//
// The paper reports, for its Consumer 1330: attack K = 0.765 vs a 95th
// percentile of 0.144 - the attack divergence is several times the
// threshold.  The same relationship must hold here.

#include <cstdio>

#include "attack/integrated_arima_attack.h"
#include "bench/bench_util.h"
#include "eval/arima_detector.h"
#include "eval/fleet_detector.h"
#include "meter/weekly_stats.h"
#include "stats/histogram.h"
#include "stats/quantile.h"

using namespace fdeta;

int main() {
  const auto scale = bench::Scale::from_env();
  const auto dataset = datagen::small_dataset(40, 74, scale.seed);
  const auto& series = dataset.consumer(3);
  const meter::TrainTestSplit split{.train_weeks = 60, .test_weeks = 14};
  const auto train = split.train(series);

  core::FleetDetector detector("kld",
                               {.kld = {.bins = 10, .significance = 0.05}});
  detector.fit(train);
  const core::DetectorFleet& kld = detector.fleet();  // member 0

  // Build the 1B attack week.
  core::ArimaDetector arima;
  arima.fit(train);
  const auto history = train.subspan(train.size() - 2 * kSlotsPerWeek);
  const auto wstats = meter::weekly_stats(train);
  Rng rng(scale.seed + 1);
  attack::IntegratedAttackConfig cfg;
  cfg.over_report = true;
  const auto attack_week = attack::integrated_arima_attack_vector(
      arima.model(), history, wstats, kSlotsPerWeek, rng, cfg);

  const stats::Histogram hist({kld.edges(0).begin(), kld.edges(0).end()});
  const auto x_dist = kld.baseline(0);
  const auto x1 = series.week(0);
  const auto x1_dist = hist.probabilities(x1);
  const auto attack_dist = hist.probabilities(attack_week);

  std::printf("# Fig. 4(a): distributions over frozen bin edges, "
              "consumer %u\n", series.id);
  std::printf("bin,edge_lo,edge_hi,p_X,p_X1,p_attack1B\n");
  for (std::size_t j = 0; j < hist.bin_count(); ++j) {
    std::printf("%zu,%.4f,%.4f,%.4f,%.4f,%.4f\n", j, hist.edges()[j],
                hist.edges()[j + 1], x_dist[j], x1_dist[j], attack_dist[j]);
  }

  const auto k = kld.reference(0);
  const double p90 = stats::percentile(k, 90.0);
  const double p95 = stats::percentile(k, 95.0);
  const double k_attack = kld.raw_score_week(0, attack_week);

  std::printf("\n# Fig. 4(b): KLD distribution over training weeks\n");
  std::printf("week,K_i\n");
  for (std::size_t i = 0; i < k.size(); ++i) {
    std::printf("%zu,%.6f\n", i, k[i]);
  }
  std::printf("\n# thresholds and attack divergence\n");
  std::printf("90th percentile: %.4f bits\n", p90);
  std::printf("95th percentile: %.4f bits\n", p95);
  std::printf("K_1 (first training week): %.4f bits\n", k.front());
  std::printf("K_A (Attack Class 1B week): %.4f bits\n", k_attack);
  std::printf("paper analogue: K_A 0.765 vs 95th pct 0.144 (factor %.1fx); "
              "measured factor %.1fx\n",
              0.765 / 0.144, k_attack / p95);
  return 0;
}
