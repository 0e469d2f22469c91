// Utility-side monitoring: the full F-DETA pipeline over an AMI population.
//
// A population of smart meters streams readings to the head-end over the
// simulated AMI network; an insider (Mallory) tampers with two streams in
// flight - over-reporting a victim (Attack Class 1B) and under-reporting
// herself (2A/2B).  The utility's five-step F-DETA pipeline then scores the
// week, classifies suspects vs victims, consults the evidence calendar, and
// launches a topology investigation.
//
// Run: ./build/examples/utility_monitoring

#include <cstdio>

#include "ami/faults.h"
#include "ami/network.h"
#include "attack/integrated_arima_attack.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "eval/report.h"
#include "meter/weekly_stats.h"
#include "pricing/tariff.h"
#include "timeseries/arima.h"

using namespace fdeta;

int main() {
  const std::size_t consumers = 20;
  const meter::TrainTestSplit split{.train_weeks = 24, .test_weeks = 6};
  const meter::Dataset actual = datagen::small_dataset(consumers, 30, 2016);
  const std::size_t attacked_week = split.train_weeks;  // first test week

  std::printf("== F-DETA utility monitoring: %zu consumers, week %zu ==\n\n",
              consumers, attacked_week);

  // --- Mallory prepares her injections (she replicates the utility models).
  const std::size_t victim = 4;    // neighbor whose meter she over-reports
  const std::size_t mallory = 11;  // her own meter, under-reported
  auto forge = [&](std::size_t consumer, bool over) {
    const auto& series = actual.consumer(consumer);
    const auto train = split.train(series);
    const auto model = ts::ArimaModel::fit(train, {});
    const auto wstats = meter::weekly_stats(train);
    Rng rng(99 + consumer);
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = over;
    return attack::integrated_arima_attack_vector(
        model, train.subspan(train.size() - 2 * kSlotsPerWeek), wstats,
        kSlotsPerWeek, rng, cfg);
  };

  // --- The AMI reporting plane with man-in-the-middle interceptors.
  ami::MeterNetwork network(actual);
  const SlotIndex week_start = attacked_week * kSlotsPerWeek;
  network.add_interceptor(
      ami::replace_interceptor(victim, week_start, forge(victim, true)));
  network.add_interceptor(
      ami::replace_interceptor(mallory, week_start, forge(mallory, false)));

  ami::HeadEnd head_end(consumers, actual.slot_count());
  network.transmit(head_end, 0, actual.slot_count());
  std::printf("AMI transmission: %zu messages, %zu tampered in flight\n",
              network.messages_sent(), network.messages_tampered());

  // Assemble the head-end's reported dataset D'.
  ami::CollectedReport collected(actual);
  ami::collect_reported(head_end, 0, actual.slot_count(), collected);
  const meter::Dataset& reported = collected.dataset;

  // --- The utility runs the five-step pipeline.
  core::PipelineConfig config;
  config.split = split;
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  core::FdetaPipeline pipeline(config);
  pipeline.fit(actual);  // training span is attack-free (Section VIII-A)

  core::EvidenceCalendar calendar;  // no excusing events this week
  const auto topology = grid::Topology::single_feeder(consumers, 0.0);
  const auto report = pipeline.evaluate_week(actual, reported, attacked_week,
                                             calendar, &topology);

  std::printf("\n%-8s %-14s %-20s %10s %10s\n", "meter", "type", "verdict",
              "KLD", "threshold");
  for (const auto& v : report.verdicts) {
    const auto idx = reported.index_of(v.id).value();
    std::printf("%-8u %-14s %-20s %10.3f %10.3f%s\n", v.id,
                std::string(to_string(reported.consumer(idx).type)).c_str(),
                core::to_string(v.status), v.kld_score, v.kld_threshold,
                idx == victim    ? "   <- 1B victim"
                : idx == mallory ? "   <- Mallory (2A/2B)"
                                 : "");
  }

  // The written artifact the revenue-protection team receives.
  std::printf("\n%s", core::render_report(report, actual, reported,
                                           attacked_week,
                                           pricing::nightsaver())
                           .c_str());
  return 0;
}
