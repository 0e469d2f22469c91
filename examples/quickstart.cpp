// Quickstart: generate a CER-like dataset, train the KLD detector for one
// consumer, inject an Integrated ARIMA attack, and watch the detector catch
// what the related-work detectors miss.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "attack/integrated_arima_attack.h"
#include "common/rng.h"
#include "core/kld_detector.h"
#include "datagen/generator.h"
#include "eval/arima_detector.h"
#include "eval/integrated_arima_detector.h"
#include "meter/weekly_stats.h"
#include "pricing/billing.h"
#include "pricing/tariff.h"

using namespace fdeta;

int main() {
  // A small population: 40 consumers, 30 weeks of half-hour readings.
  const meter::Dataset dataset = datagen::small_dataset(40, 30, /*seed=*/42);
  const meter::TrainTestSplit split{.train_weeks = 24, .test_weeks = 6};

  const auto summary = meter::summarize(dataset);
  std::printf("dataset: %zu consumers (%zu residential, %zu SME, %zu other), "
              "%zu weeks, mean demand %.2f kW\n",
              dataset.consumer_count(), summary.residential, summary.sme,
              summary.unclassified, dataset.week_count(), summary.mean_kw);

  // Pick one consumer and train the three detectors on her first 24 weeks.
  const meter::ConsumerSeries& victim = dataset.consumer(3);
  const auto train = split.train(victim);

  core::ArimaDetector arima;
  arima.fit(train);
  core::IntegratedArimaDetector integrated;
  integrated.fit(train);
  core::KldDetector kld({.bins = 10, .significance = 0.05});
  kld.fit(train);

  // Mallory (an insider on the AMI) over-reports this victim's next week
  // using the Integrated ARIMA attack: truncated-normal readings inside the
  // ARIMA confidence band whose weekly mean/variance match history.
  Rng rng(7);
  const auto history = train.subspan(train.size() - 2 * kSlotsPerWeek);
  const auto wstats = meter::weekly_stats(train);
  attack::IntegratedAttackConfig cfg;
  cfg.over_report = true;
  const auto attack_week = attack::integrated_arima_attack_vector(
      arima.model(), history, wstats, kSlotsPerWeek, rng, cfg);

  const auto clean_week = split.test_week(victim, 0);
  const auto tou = pricing::nightsaver();
  const KWh stolen = pricing::energy_under_reported(attack_week, clean_week);
  const Dollars billed_to_victim =
      pricing::neighbor_loss(clean_week, attack_week, tou);

  std::printf("\nconsumer %u, attacked week: %.0f kWh would be billed to the "
              "victim ($%.2f)\n",
              victim.id, stolen, billed_to_victim);

  const auto verdict = [](bool flagged) { return flagged ? "FLAGGED" : "missed"; };
  std::printf("\n%-28s clean week   attack week\n", "detector");
  std::printf("%-28s %-12s %s\n", "ARIMA (ref [2])",
              verdict(arima.flag_week(clean_week)),
              verdict(arima.flag_week(attack_week)));
  std::printf("%-28s %-12s %s\n", "Integrated ARIMA (ref [2])",
              verdict(integrated.flag_week(clean_week)),
              verdict(integrated.flag_week(attack_week)));
  std::printf("%-28s %-12s %s\n", "KLD (this paper)",
              verdict(kld.flag_week(clean_week)),
              verdict(kld.flag_week(attack_week)));

  std::printf("\nKLD score: clean %.3f vs attack %.3f (threshold %.3f)\n",
              kld.score(clean_week), kld.score(attack_week), kld.threshold());
  return 0;
}
