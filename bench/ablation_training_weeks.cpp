// Ablation C: sensitivity of the KLD detector to the training-set length M.
//
// The paper trains on 60 weeks; utilities deploying fresh meters have less
// history.  This bench re-fits the detector on progressively shorter
// training windows (always ending at week 60, so the test weeks are fixed)
// and reports detection / false-positive rates.

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

  std::printf("Ablation C: training weeks (M), %zu consumers, %zu vectors, "
              "B = 10, alpha = 5%%\n",
              consumers, vectors);

  std::vector<bench::ConsumerArtifacts> artifacts(consumers);
  parallel_for(consumers, [&](std::size_t i) {
    artifacts[i] =
        bench::make_artifacts(dataset.consumer(i), split, vectors, scale.seed);
  });

  std::printf("%8s %14s %14s\n", "weeks", "detection%", "false-pos%");
  for (const std::size_t weeks : {8, 12, 20, 30, 45, 60}) {
    std::size_t detected = 0, total_attacks = 0;
    std::size_t fps = 0, total_clean = 0;
    for (std::size_t i = 0; i < consumers; ++i) {
      // Train on the LAST `weeks` weeks of the 60-week training span.
      const auto& full = artifacts[i].train;
      const std::span<const Kw> window{
          full.data() + (60 - weeks) * kSlotsPerWeek, weeks * kSlotsPerWeek};
      core::FleetDetector kld("kld",
                              {.kld = {.bins = 10, .significance = 0.05}});
      kld.fit(window);
      for (const auto& v : artifacts[i].attack_vectors) {
        if (kld.flag_week(v)) ++detected;
        ++total_attacks;
      }
      for (std::size_t w = 0; w < split.test_weeks; ++w) {
        if (kld.flag_week(split.test_week(dataset.consumer(i), w))) ++fps;
        ++total_clean;
      }
    }
    std::printf("%8zu %13.1f%% %13.1f%%\n", weeks,
                100.0 * detected / static_cast<double>(total_attacks),
                100.0 * fps / static_cast<double>(total_clean));
  }
  return 0;
}
