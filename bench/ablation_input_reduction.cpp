// Ablation: input reduction for the lightweight KLD detector (kld-lite).
//
// The reduced-input family scores a week from k << 336 selected slots (top
// training variance), trading recall for a 336/k cut in per-week input and
// histogram work - the knob that matters when the scoring plane must follow
// meters onto constrained collectors.  This bench sweeps k and reports the
// operating point (detection rate on Integrated-ARIMA 1B vectors,
// false-positive rate on clean test weeks) next to the full-input KLD row
// (k = 336), answering the design question "how small can k get before the
// operating point degrades?".  The committed numbers live in EXPERIMENTS.md.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "eval/fleet_detector.h"

using namespace fdeta;

int main() {
  const auto scale = bench::Scale::from_env();
  const std::size_t consumers = std::min<std::size_t>(scale.consumers, 150);
  const std::size_t vectors = std::min<std::size_t>(scale.vectors, 10);
  const auto dataset = datagen::small_dataset(consumers, 74, scale.seed);
  const meter::TrainTestSplit split{.train_weeks = 60, .test_weeks = 14};

  std::printf(
      "Ablation: reduced-input KLD (k selected slots of %d), %zu consumers, "
      "%zu vectors, B = 10, alpha = 5%%\n",
      kSlotsPerWeek, consumers, vectors);

  std::vector<bench::ConsumerArtifacts> artifacts(consumers);
  parallel_for(consumers, [&](std::size_t i) {
    artifacts[i] =
        bench::make_artifacts(dataset.consumer(i), split, vectors, scale.seed);
  });

  std::printf("%6s %10s %14s %14s\n", "k", "input", "detection%",
              "false-pos%");
  for (const std::size_t k : {std::size_t{336}, std::size_t{168},
                              std::size_t{96}, std::size_t{48},
                              std::size_t{24}, std::size_t{12}}) {
    std::size_t detected = 0, total_attacks = 0;
    std::size_t fps = 0, total_clean = 0;
    for (std::size_t i = 0; i < consumers; ++i) {
      core::FleetDetector lite(
          "kld-lite",
          {.kld = {.bins = 10, .significance = 0.05}, .reduced_slots = k});
      lite.fit(artifacts[i].train);
      for (const auto& v : artifacts[i].attack_vectors) {
        if (lite.flag_week(v)) ++detected;
        ++total_attacks;
      }
      for (std::size_t w = 0; w < split.test_weeks; ++w) {
        if (lite.flag_week(split.test_week(dataset.consumer(i), w))) ++fps;
        ++total_clean;
      }
    }
    std::printf("%6zu %9.1f%% %13.1f%% %13.1f%%\n", k,
                100.0 * static_cast<double>(k) /
                    static_cast<double>(kSlotsPerWeek),
                100.0 * detected / static_cast<double>(total_attacks),
                100.0 * fps / static_cast<double>(total_clean));
  }
  return 0;
}
