// Ablation A: the effect of the histogram bin count B on the KLD detector.
//
// Section VIII-D: "we used 10 bins.  Fewer bins produce more false negatives
// and fewer false positives.  The impact of the number of bins on the
// results is a study to be included in extensions of this paper."  This
// bench is that study: detection rate (true positives on Integrated-ARIMA
// 1B vectors) and false-positive rate (on clean test weeks) as B sweeps.

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

  std::printf("Ablation A: KLD bin count (B), %zu consumers, %zu vectors, "
              "alpha = 5%%\n",
              consumers, vectors);

  std::vector<bench::ConsumerArtifacts> artifacts(consumers);
  parallel_for(consumers, [&](std::size_t i) {
    artifacts[i] =
        bench::make_artifacts(dataset.consumer(i), split, vectors, scale.seed);
  });

  std::printf("%6s %14s %14s\n", "bins", "detection%", "false-pos%");
  for (const std::size_t bins : {2, 5, 10, 20, 40, 80}) {
    std::size_t detected = 0, total_attacks = 0;
    std::size_t fps = 0, total_clean = 0;
    for (std::size_t i = 0; i < consumers; ++i) {
      core::FleetDetector kld("kld",
                              {.kld = {.bins = bins, .significance = 0.05}});
      kld.fit(artifacts[i].train);
      for (const auto& v : artifacts[i].attack_vectors) {
        if (kld.flag_week(v)) ++detected;
        ++total_attacks;
      }
      // False positives over every clean test week.
      for (std::size_t w = 0; w < split.test_weeks; ++w) {
        if (kld.flag_week(split.test_week(dataset.consumer(i), w))) ++fps;
        ++total_clean;
      }
    }
    std::printf("%6zu %13.1f%% %13.1f%%\n", bins,
                100.0 * detected / static_cast<double>(total_attacks),
                100.0 * fps / static_cast<double>(total_clean));
  }
  return 0;
}
