// Extension: Attack Class 4B under real-time pricing with ADR - the study
// the paper defers to future work (Section VII-A): "we would need to make
// assumptions of how each consumer ... changes consumption in response to
// changes in real-time electricity prices".
//
// We make those assumptions explicit (Consumer Own Elasticity, ref [26]),
// simulate an RTP market, launch the 4B attack against a population of
// ADR-equipped victims, and evaluate the paper's conjecture that the
// price-conditioned KLD detector extends to this class.

#include <cstdio>

#include "attack/adr_attack.h"
#include "bench/bench_util.h"
#include "eval/fleet_detector.h"
#include "pricing/billing.h"

using namespace fdeta;

int main() {
  const auto scale = bench::Scale::from_env();
  const std::size_t consumers = std::min<std::size_t>(scale.consumers, 100);
  const std::size_t weeks = 30;
  const meter::TrainTestSplit split{.train_weeks = 24, .test_weeks = 6};

  // Price-responsive world: every consumer's ADR modulates the generated
  // baseline by the true RTP stream, and the detectors are trained on that
  // price-responsive history.
  Rng rng(scale.seed);
  const auto rtp = pricing::RealTimePricing::simulate(
      weeks * kSlotsPerWeek, /*base=*/0.20, rng);
  const double elasticity = 0.8;

  auto baseline = datagen::small_dataset(consumers, weeks, scale.seed);
  meter::Dataset responsive = baseline;
  for (std::size_t c = 0; c < consumers; ++c) {
    auto& readings = responsive.consumer(c).readings;
    for (std::size_t t = 0; t < readings.size(); ++t) {
      const pricing::OwnElasticity model(elasticity, 0.20);
      readings[t] = model.respond(readings[t], rtp.price(t));
    }
  }

  // Detectors: plain KLD and KLD conditioned on RTP price bands.
  const SlotIndex attack_first_slot = split.train_weeks * kSlotsPerWeek;

  std::size_t plain_detected = 0, conditioned_detected = 0;
  std::size_t plain_fp = 0, conditioned_fp = 0;
  double total_loss = 0.0, total_perceived = 0.0;
  KWh total_stolen = 0.0;

  attack::AdrAttackConfig attack_cfg;
  attack_cfg.price_inflation = 1.5;
  attack_cfg.elasticity = elasticity;

  for (std::size_t c = 0; c < consumers; ++c) {
    const auto& series = responsive.consumer(c);
    const auto train = split.train(series);

    core::FleetDetector plain("kld",
                              {.kld = {.bins = 10, .significance = 0.05}});
    plain.fit(train);

    core::ConditionedKldDetectorConfig cc;
    cc.kld = {.bins = 10, .significance = 0.05};
    cc.slot_group = core::rtp_slot_groups(rtp, weeks * kSlotsPerWeek, 3);
    core::FleetDetector conditioned(cc);
    conditioned.fit(train);

    // Mallory cannot predict the victim's counterfactual response to the
    // true prices, so the compromised meter reports the price-INELASTIC
    // baseline (the victim's schedule at the reference price).  That is the
    // 4B signature the conditioned detector can key on: conditioned on
    // high-price bands, the reported readings sit abnormally high because
    // they never curtail.
    const auto victim_baseline = split.test_week(baseline.consumer(c), 0);
    const auto result = attack::launch_adr_attack(
        victim_baseline, rtp, attack_first_slot, attack_cfg);

    total_loss += result.victim_loss;
    total_perceived += result.victim_perceived_benefit;
    total_stolen += result.energy_stolen;

    // The utility sees the victim's *reported* (over-reported) week.
    const auto honest_week = split.test_week(series, 0);
    if (plain.flag_week(result.victim_reported)) ++plain_detected;
    if (conditioned.flag_week(result.victim_reported)) ++conditioned_detected;
    if (plain.flag_week(honest_week)) ++plain_fp;
    if (conditioned.flag_week(honest_week)) ++conditioned_fp;
  }

  const double n = static_cast<double>(consumers);
  std::printf("Attack Class 4B extension: %zu ADR victims, elasticity %.1f, "
              "price inflation %.1fx\n",
              consumers, elasticity, attack_cfg.price_inflation);
  std::printf("  energy stolen:            %10.0f kWh / week\n", total_stolen);
  std::printf("  victims' real loss (L_n): $%9.2f   (eq. 10)\n", total_loss);
  std::printf("  perceived 'savings' (dB): $%9.2f   (eq. 11 - victims think "
              "they won)\n", total_perceived);
  bench::print_header("Detection of the victims' over-reported weeks");
  std::printf("%-36s %12s %12s\n", "detector", "detected", "false-pos");
  std::printf("%-36s %11.1f%% %11.1f%%\n", "KLD (unconditioned)",
              100.0 * plain_detected / n, 100.0 * plain_fp / n);
  std::printf("%-36s %11.1f%% %11.1f%%\n", "KLD conditioned on price band",
              100.0 * conditioned_detected / n, 100.0 * conditioned_fp / n);
  std::printf("\npaper's conjecture (Section VIII-F3): conditioning extends "
              "the KLD detector to Attack Class 4B -> %s\n",
              conditioned_detected > plain_detected ? "SUPPORTED"
                                                    : "NOT SUPPORTED");
  return 0;
}
