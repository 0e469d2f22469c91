// Ablation B: significance-level sweep for the KLD detector (ROC-style).
//
// The paper evaluates alpha = 5% and 10% (Table II) and notes the trade-off:
// a more aggressive boundary detects more attacks but pays in false
// positives (Section VII-D, VIII-E).  This bench sweeps alpha across
// 1%..25% and reports both rates.

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

  std::printf("Ablation B: KLD significance sweep, %zu consumers, "
              "%zu vectors, B = 10\n",
              consumers, vectors);

  std::vector<bench::ConsumerArtifacts> artifacts(consumers);
  parallel_for(consumers, [&](std::size_t i) {
    artifacts[i] =
        bench::make_artifacts(dataset.consumer(i), split, vectors, scale.seed);
  });

  std::printf("%8s %14s %14s\n", "alpha", "detection%", "false-pos%");
  for (const double alpha : {0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.25}) {
    std::size_t detected = 0, total_attacks = 0;
    std::size_t fps = 0, total_clean = 0;
    for (std::size_t i = 0; i < consumers; ++i) {
      core::FleetDetector kld("kld",
                              {.kld = {.bins = 10, .significance = alpha}});
      kld.fit(artifacts[i].train);
      for (const auto& v : artifacts[i].attack_vectors) {
        if (kld.flag_week(v)) ++detected;
        ++total_attacks;
      }
      for (std::size_t w = 0; w < split.test_weeks; ++w) {
        if (kld.flag_week(split.test_week(dataset.consumer(i), w))) ++fps;
        ++total_clean;
      }
    }
    std::printf("%7.0f%% %13.1f%% %13.1f%%\n", 100.0 * alpha,
                100.0 * detected / static_cast<double>(total_attacks),
                100.0 * fps / static_cast<double>(total_clean));
  }
  return 0;
}
