// Extension: multiple simultaneous attackers (the paper's conclusion lists
// "account for the presence of multiple attackers" as planned future work).
//
// k attackers on one feeder each run the Integrated-ARIMA 1B attack against
// disjoint victims in the same week.  We measure (a) how per-victim KLD
// detection scales with k (each victim's stream is judged independently, so
// it should not degrade), and (b) what the balance layer sees when the
// attackers do / do not coordinate the neighbor compensation.

#include <cstdio>

#include "attack/collusion.h"
#include "attack/injector.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/detector_fleet.h"
#include "grid/balance.h"
#include "grid/hierarchy/feeder_monitor.h"
#include "stats/descriptive.h"

using namespace fdeta;

int main() {
  const auto scale = bench::Scale::from_env();
  const std::size_t consumers = std::min<std::size_t>(scale.consumers, 120);
  const auto dataset = datagen::small_dataset(consumers, 74, scale.seed);
  const meter::TrainTestSplit split{.train_weeks = 60, .test_weeks = 14};
  const std::size_t attacked_week = split.train_weeks;

  // Pre-fit detectors (one fleet member per consumer) and pre-generate
  // per-consumer 1B vectors.
  core::DetectorFleet detectors(
      "kld", {.kld = {.bins = 10, .significance = 0.10}}, consumers,
      split.train_weeks);
  std::vector<std::vector<Kw>> vectors(consumers);
  std::vector<char> usable(consumers, 1);
  parallel_for(consumers, [&](std::size_t i) {
    try {
      const auto artifacts = bench::make_artifacts(dataset.consumer(i), split,
                                                   /*vectors=*/1, scale.seed);
      detectors.fit(i, artifacts.train);
      vectors[i] = artifacts.attack_vectors.front();
    } catch (const std::exception&) {
      usable[i] = 0;
    }
  });
  // Consumer i's week is anomalous: the kld flag rule on member i.
  const auto flags = [&](std::size_t i, std::span<const Kw> week) {
    return detectors.raw_score_week(i, week) >
           detectors.raw_decision_threshold(i);
  };

  const auto topology = grid::Topology::single_feeder(consumers, 0.0);

  std::printf("Multiple simultaneous 1B attackers, %zu consumers on one "
              "feeder, KLD alpha = 10%%\n\n",
              consumers);
  std::printf("%10s %18s %22s %22s\n", "attackers", "victims detected",
              "root check (coord.)", "root check (uncoord.)");

  for (const std::size_t k : {1, 2, 5, 10, 25, 50}) {
    if (k > consumers / 2) break;
    // Victims are the first k usable consumers.
    std::vector<attack::WeekInjection> injections;
    for (std::size_t i = 0; i < consumers && injections.size() < k; ++i) {
      if (!usable[i] || vectors[i].empty()) continue;
      injections.push_back({i, attacked_week, vectors[i]});
    }
    const auto reported = attack::apply_injections(dataset, injections);

    std::size_t detected = 0;
    for (const auto& inj : injections) {
      const std::size_t i = inj.consumer_index;
      if (flags(i, reported.consumer(i).week(attacked_week))) ++detected;
    }

    // Balance view at the attacked week (average demands).  Coordinated:
    // the attackers consume exactly what the victims are over-billed for,
    // so actual totals rise to match reported.  Uncoordinated: the books
    // do not add up and the trusted root meter sees it.
    std::vector<Kw> actual_avg(consumers), reported_avg(consumers);
    for (std::size_t i = 0; i < consumers; ++i) {
      actual_avg[i] = stats::mean(dataset.consumer(i).week(attacked_week));
      reported_avg[i] = stats::mean(reported.consumer(i).week(attacked_week));
    }
    const auto uncoordinated =
        grid::run_balance_checks(topology, actual_avg, reported_avg, {}, 1e-6);

    std::vector<Kw> coordinated_actual = actual_avg;
    // Each attacker's actual consumption absorbs her victim's over-report.
    double absorbed = 0.0;
    for (const auto& inj : injections) {
      absorbed += reported_avg[inj.consumer_index] -
                  actual_avg[inj.consumer_index];
    }
    // Mallory sits at the last leaf and soaks up the total.
    coordinated_actual[consumers - 1] += absorbed;
    const auto coordinated = grid::run_balance_checks(
        topology, coordinated_actual, reported_avg, {}, 1e-6);

    std::printf("%10zu %11zu/%zu %27s %22s\n", injections.size(), detected,
                injections.size(),
                coordinated.failed(topology.root()) ? "FAILS" : "passes",
                uncoordinated.failed(topology.root()) ? "FAILS" : "passes");
  }

  std::printf("\nper-victim detection is independent of k (the KLD detector "
              "judges each stream separately), so the data-driven layer "
              "scales to multiple attackers; the balance layer only helps "
              "when attackers fail to coordinate consumption with their "
              "over-reports.\n");

  // Collusion sweep: k siblings under the deepest shared transformer each
  // shave a sub-threshold sliver of the attacked week (attack/collusion.h).
  // Per-consumer KLD sees (almost) nothing; the feeder hierarchy layer
  // aggregates the joint residual up the radial tree and localises the
  // group.
  fdeta::Rng topo_rng(scale.seed);
  const auto radial =
      grid::Topology::random_radial(consumers, 4, topo_rng, 0.02);
  hierarchy::FeederConfig feeder_config;
  hierarchy::FeederMonitor feeder(radial, feeder_config);
  feeder.fit(dataset, split);

  // The attacked week's trusted means, and each consumer's training mean
  // (the scale of the collusion test).
  std::vector<double> actual_mean(consumers);
  std::vector<double> train_mean(consumers);
  for (std::size_t i = 0; i < consumers; ++i) {
    actual_mean[i] = stats::mean(dataset.consumer(i).week(attacked_week));
    train_mean[i] = stats::mean(split.train(dataset.consumer(i)));
  }

  std::printf("\nColluding sibling groups, %.0f%% shave each, week %zu\n\n",
              100.0 * 0.03, attacked_week);
  std::printf("%10s %18s %14s %10s %12s\n", "colluders", "flagged (KLD)",
              "feeder alerts", "groups", "localized");
  for (const std::size_t k : {2, 4, 8, 16}) {
    if (k > consumers) break;
    const auto scenario = attack::make_collusion_scenario(
        radial, dataset, k, /*shave_fraction=*/0.03, attacked_week);
    const auto reported = attack::apply_injections(dataset,
                                                   scenario.injections);

    std::size_t flagged_individually = 0;
    std::vector<unsigned char> flagged(consumers, 0);
    for (const std::size_t i : scenario.consumers) {
      if (!usable[i]) continue;
      if (flags(i, reported.consumer(i).week(attacked_week))) {
        flagged[i] = 1;
        ++flagged_individually;
      }
    }

    const auto report =
        feeder.evaluate_week(actual_mean, reported, attacked_week, train_mean,
                             flagged);
    std::size_t localized = 0;
    for (const auto& group : report.collusion) {
      for (const std::size_t member : group.consumers) {
        for (const std::size_t colluder : scenario.consumers) {
          if (member == colluder) ++localized;
        }
      }
    }
    std::printf("%10zu %14zu/%zu %14zu %10zu %9zu/%zu\n", k,
                flagged_individually, k, report.alert_count(),
                report.collusion.size(), localized, k);
  }

  std::printf("\nthe feeder layer closes the collusion gap: each colluder "
              "stays under the per-consumer threshold, but the shaves add "
              "up at the shared transformer, where the balance-mode "
              "residual is exact and the aggregate detector fires.\n");
  return 0;
}
