// Weather-aware monitoring: why F-DETA's step 4 (external evidence) exists.
//
// A cold snap hits the service area during the same week Mallory runs an
// Integrated-ARIMA theft.  Without evidence handling, the utility would
// chase dozens of weather-driven false positives; with the severe-weather
// event on the calendar, honest households are excused while the thief -
// whose anomaly is *not* explained by the weather direction - still stands
// out to the investigator reviewing the excused list.
//
// Run: ./build/examples/weather_aware_monitoring

#include <algorithm>
#include <cstdio>

#include "attack/integrated_arima_attack.h"
#include "attack/injector.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "datagen/weather.h"
#include "meter/weekly_stats.h"
#include "timeseries/arima.h"

using namespace fdeta;

int main() {
  const std::size_t consumers = 24;
  const std::size_t weeks = 40;
  const meter::TrainTestSplit split{.train_weeks = 34, .test_weeks = 6};
  const std::size_t event_week = 36;

  // Weather with a -9C snap in week 36, coupled into every household.
  Rng wrng(31337);
  const std::vector<datagen::WeatherEvent> events{
      {.first_slot = event_week * kSlotsPerWeek,
       .last_slot = (event_week + 1) * kSlotsPerWeek - 1,
       .delta_c = -9.0}};
  const auto temperature = datagen::generate_temperature(
      weeks * kSlotsPerWeek, datagen::WeatherConfig{}, wrng, events);

  auto actual = datagen::small_dataset(consumers, weeks, 31337);
  Rng trng(99);
  for (std::size_t c = 0; c < consumers; ++c) {
    datagen::ThermalResponse response;
    response.heating_kw_per_c = 0.04 + 0.05 * trng.uniform();
    datagen::apply_weather(actual.consumer(c).readings, temperature,
                           response);
  }

  // Mallory (consumer 9) under-reports during the snap week - cover traffic.
  const std::size_t mallory = 9;
  const auto& series = actual.consumer(mallory);
  const auto train = split.train(series);
  const auto model = ts::ArimaModel::fit(train, {});
  const auto wstats = meter::weekly_stats(train);
  Rng arng(5);
  attack::IntegratedAttackConfig acfg;
  acfg.over_report = false;
  attack::WeekInjection inj;
  inj.consumer_index = mallory;
  inj.week = event_week;
  inj.reported_week = attack::integrated_arima_attack_vector(
      model, train.subspan(train.size() - 2 * kSlotsPerWeek), wstats,
      kSlotsPerWeek, arng, acfg);
  const auto reported = attack::apply_injections(actual, {inj});

  core::PipelineConfig config;
  config.split = split;
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  core::FdetaPipeline pipeline(config);
  pipeline.fit(actual);

  const core::EvidenceCalendar no_calendar;
  core::EvidenceCalendar calendar;
  calendar.add({.first_week = event_week,
                .last_week = event_week,
                .kind = core::EvidenceKind::kSevereWeather,
                .description = "-9C cold snap"});

  const auto bare =
      pipeline.evaluate_week(actual, reported, event_week, no_calendar);
  const auto informed =
      pipeline.evaluate_week(actual, reported, event_week, calendar);

  std::size_t bare_anomalies = 0;
  for (const auto& v : bare.verdicts) {
    if (v.status != core::VerdictStatus::kNormal) ++bare_anomalies;
  }
  std::printf("cold-snap week without evidence handling: %zu of %zu meters "
              "anomalous (an investigation avalanche)\n\n",
              bare_anomalies, consumers);

  std::printf("with the severe-weather event on the calendar:\n");
  std::printf("%-8s %-20s %10s   %s\n", "meter", "verdict", "KLD", "note");
  for (std::size_t c = 0; c < consumers; ++c) {
    const auto& v = informed.verdicts[c];
    if (v.status == core::VerdictStatus::kNormal) continue;
    const char* note = "";
    if (c == mallory) {
      note = "<- Mallory: LOW during a cold snap - weather cannot "
             "explain under-consumption";
    }
    std::printf("%-8u %-20s %10.3f   %s\n", v.id, core::to_string(v.status),
                v.kld_score, note);
  }
  // A snap week is also ideal COVER for under-reporting: Mallory's forged
  // low readings masquerade as an ordinary quiet week, so her own stream may
  // not even be flagged.  The investigator's weather-adjusted triage closes
  // that hole: during a cold snap everyone's consumption ratio
  // (week mean / training median mean) moves UP together, so the meters with
  // the LOWEST ratios are the ones the weather cannot explain.
  std::printf("\nweather-adjusted triage (week mean / training median), "
              "lowest first:\n");
  std::vector<std::pair<double, std::size_t>> ratios;
  for (std::size_t c = 0; c < consumers; ++c) {
    const auto week = reported.consumer(c).week(event_week);
    double week_mean = 0.0;
    for (double x : week) week_mean += x;
    week_mean /= static_cast<double>(week.size());
    const auto train_c = split.train(actual.consumer(c));
    const auto ws = meter::weekly_stats(train_c);
    std::vector<double> means = ws.means;
    std::nth_element(means.begin(), means.begin() + means.size() / 2,
                     means.end());
    ratios.emplace_back(week_mean / means[means.size() / 2], c);
  }
  std::sort(ratios.begin(), ratios.end());
  for (std::size_t rank = 0; rank < 3; ++rank) {
    const auto [ratio, c] = ratios[rank];
    std::printf("  #%zu meter %u ratio %.2f%s\n", rank + 1,
                reported.consumer(c).id, ratio,
                c == mallory ? "   <- Mallory (everyone else moved UP)" : "");
  }
  return 0;
}
