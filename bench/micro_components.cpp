// Component micro-benchmarks (google-benchmark): the per-consumer costs that
// dominated the paper's "74 CPU cores for 4 weeks" evaluation, plus the
// topology-search scaling argument of Section V-C.

#include <benchmark/benchmark.h>

#include <malloc.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ami/faults.h"
#include "ami/network.h"
#include "attack/integrated_arima_attack.h"
#include "common/thread_pool.h"
#include "core/detector_fleet.h"
#include "core/kld_detector.h"
#include "datagen/generator.h"
#include "datagen/weather.h"
#include "eval/arima_detector.h"
#include "grid/investigate.h"
#include "grid/losses.h"
#include "market/clearing.h"
#include "meter/weekly_stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "persist/binary_io.h"
#include "stats/histogram.h"
#include "stats/kl_divergence.h"
#include "stats/truncated_normal.h"
#include "timeseries/arima.h"

namespace {

using namespace fdeta;

const meter::Dataset& fixture_dataset() {
  static const meter::Dataset dataset = datagen::small_dataset(4, 16, 99);
  return dataset;
}

std::span<const Kw> fixture_train() {
  static const meter::TrainTestSplit split{.train_weeks = 12,
                                           .test_weeks = 4};
  return split.train(fixture_dataset().consumer(0));
}

void BM_DatasetGeneration(benchmark::State& state) {
  const auto consumers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::small_dataset(consumers, 4, 7));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(consumers) * 4 *
                          kSlotsPerWeek);
}
BENCHMARK(BM_DatasetGeneration)->Arg(1)->Arg(10)->Arg(100);

void BM_ArimaFit(benchmark::State& state) {
  const auto train = fixture_train();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::ArimaModel::fit(train, {}));
  }
}
BENCHMARK(BM_ArimaFit);

void BM_ArimaRollingWeek(benchmark::State& state) {
  const auto train = fixture_train();
  const auto model = ts::ArimaModel::fit(train, {});
  const auto history = train.subspan(train.size() - 2 * kSlotsPerWeek);
  const auto week = train.subspan(0, kSlotsPerWeek);
  for (auto _ : state) {
    ts::RollingForecaster forecaster = model.forecaster(history);
    double acc = 0.0;
    for (double reading : week) {
      acc += forecaster.next().mean;
      forecaster.observe(reading);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSlotsPerWeek);
}
BENCHMARK(BM_ArimaRollingWeek);

void BM_KldFit(benchmark::State& state) {
  const auto train = fixture_train();
  for (auto _ : state) {
    core::KldDetector detector(
        {.bins = static_cast<std::size_t>(state.range(0)),
         .significance = 0.05});
    detector.fit(train);
    benchmark::DoNotOptimize(detector.threshold());
  }
}
BENCHMARK(BM_KldFit)->Arg(10)->Arg(40);

void BM_KldScoreWeek(benchmark::State& state) {
  const auto train = fixture_train();
  core::KldDetector detector({.bins = 10, .significance = 0.05});
  detector.fit(train);
  const auto week = train.subspan(0, kSlotsPerWeek);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.score(week));
  }
}
BENCHMARK(BM_KldScoreWeek);

void BM_IntegratedAttackVector(benchmark::State& state) {
  const auto train = fixture_train();
  const auto model = ts::ArimaModel::fit(train, {});
  const auto history = train.subspan(train.size() - 2 * kSlotsPerWeek);
  const auto wstats = meter::weekly_stats(train);
  Rng rng(3);
  attack::IntegratedAttackConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::integrated_arima_attack_vector(
        model, history, wstats, kSlotsPerWeek, rng, cfg));
  }
}
BENCHMARK(BM_IntegratedAttackVector);

void BM_TruncatedNormalSample(benchmark::State& state) {
  const stats::TruncatedNormal tnd(0.5, 1.0, 0.0, 2.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tnd.sample(rng));
  }
}
BENCHMARK(BM_TruncatedNormalSample);

void BM_HistogramProbabilities(benchmark::State& state) {
  const auto train = fixture_train();
  const stats::Histogram hist(train, 10);
  const auto week = train.subspan(0, kSlotsPerWeek);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.probabilities(week));
  }
}
BENCHMARK(BM_HistogramProbabilities);

void BM_BalanceChecksRandomRadial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const auto topology = grid::Topology::random_radial(n, 4, rng, 0.02);
  std::vector<Kw> actual(n, 1.0);
  std::vector<Kw> reported = actual;
  reported[n / 2] = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid::run_balance_checks(topology, actual, reported));
  }
}
BENCHMARK(BM_BalanceChecksRandomRadial)->Arg(100)->Arg(1000)->Arg(10000);

void BM_InvestigateCase2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const auto topology = grid::Topology::random_radial(n, 4, rng, 0.0);
  std::vector<Kw> actual(n, 1.0);
  std::vector<Kw> reported = actual;
  reported[n / 2] = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid::investigate_case2(topology, actual, reported));
  }
}
BENCHMARK(BM_InvestigateCase2)->Arg(100)->Arg(1000)->Arg(10000);

void BM_InvestigateExhaustive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const auto topology = grid::Topology::random_radial(n, 4, rng, 0.0);
  std::vector<Kw> actual(n, 1.0);
  std::vector<Kw> reported = actual;
  reported[n / 2] = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid::investigate_exhaustive(topology, actual, reported));
  }
}
BENCHMARK(BM_InvestigateExhaustive)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KlDivergence(benchmark::State& state) {
  std::vector<double> p(10), q(10);
  for (std::size_t i = 0; i < 10; ++i) {
    p[i] = (i + 1) / 55.0;
    q[i] = (10 - i) / 55.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::kl_divergence_bits(p, q));
  }
}
BENCHMARK(BM_KlDivergence);

void BM_MarketClearSlot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<market::Participant> participants(n);
  for (std::size_t i = 0; i < n; ++i) {
    participants[i] = {.baseline = 0.5 + 0.01 * static_cast<double>(i),
                       .elasticity = 0.8,
                       .price_distortion = 1.0};
  }
  const market::SupplyCurve supply{.base = 0.05, .slope = 1e-4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(market::clear_slot(participants, supply, 0.20));
  }
}
BENCHMARK(BM_MarketClearSlot)->Arg(10)->Arg(100)->Arg(1000);

void BM_NtlAnalysis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Kw> actual(n, 1.0), reported(n, 0.98);
  const grid::LineImpedance line{.resistance_ohm = 0.8, .voltage_kv = 11.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid::analyze_ntl(actual, reported, line));
  }
}
BENCHMARK(BM_NtlAnalysis)->Arg(100)->Arg(10000);

void BM_TemperatureGeneration(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::generate_temperature(
        kSlotsPerWeek, datagen::WeatherConfig{}, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSlotsPerWeek);
}
BENCHMARK(BM_TemperatureGeneration);

// One slot through the AMI plane as the `stream` workload drives it: 4,000
// meters, that workload's fault plan and NACK budget, one transmit(t, t + 1)
// and the read-out of the slot from the head-end.  When the horizon runs
// out, a fresh head-end and network start over outside the timed region.
void BM_AmiTransmitSlot(benchmark::State& state) {
  constexpr std::size_t kConsumers = 4000;
  static const meter::Dataset dataset =
      datagen::small_dataset(kConsumers, 1, 31);
  ami::FaultPlanConfig faults;
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.01;
  faults.reorder_rate = 0.02;
  faults.max_delay_slots = 4;
  faults.corrupt_rate = 0.001;
  faults.seed = 31;
  obs::MetricsRegistry registry;
  obs::EventLog events;
  std::unique_ptr<ami::HeadEnd> head_end;
  std::unique_ptr<ami::MeterNetwork> network;
  const auto start_over = [&] {
    head_end = std::make_unique<ami::HeadEnd>(kConsumers,
                                              dataset.slot_count(), &registry);
    network = std::make_unique<ami::MeterNetwork>(dataset, &registry, &events);
    network->set_fault_plan(ami::FaultPlan(faults));
    network->set_retransmit({.max_retries = 2, .backoff_base_slots = 1});
  };
  start_over();
  std::vector<Kw> row(kConsumers);
  SlotIndex t = 0;
  for (auto _ : state) {
    if (t == dataset.slot_count()) {
      state.PauseTiming();
      start_over();
      t = 0;
      state.ResumeTiming();
    }
    network->transmit(*head_end, t, t + 1);
    for (std::size_t c = 0; c < kConsumers; ++c) {
      row[c] = head_end->has_reading(c, t) ? head_end->reading(c, t) : 0.0;
    }
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
    ++t;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kConsumers));
}
BENCHMARK(BM_AmiTransmitSlot)->Unit(benchmark::kMicrosecond);

// The detector block of a warm restart, per registered family: a
// DetectorFleet of 4,000 members fitted on 6 training weeks with default
// options, saved and restored through the fleet's public API only.  The
// restore runs on the shared pool (FDETA_THREADS sets its width); time per
// member is the iteration time / 4,000.  Counters: block bytes per member,
// and the restored fleet's heap bytes per member (glibc mallinfo2).
constexpr std::size_t kFleetMembers = 4000;

const core::DetectorFleet& fitted_fleet(const std::string& family) {
  static std::map<std::string, core::DetectorFleet> fleets;
  if (!fleets.contains(family)) {
    const meter::Dataset dataset =
        datagen::small_dataset(kFleetMembers, 6, 41);
    core::DetectorFleet fleet(family, {}, kFleetMembers, 6);
    parallel_for(kFleetMembers, [&](std::size_t i) {
      fleet.fit(i, dataset.consumer(i).readings);
    });
    fleets.emplace(family, std::move(fleet));
  }
  return fleets.at(family);
}

std::string fleet_block(const std::string& family) {
  persist::Encoder enc;
  fitted_fleet(family).save(enc);
  return enc.bytes();
}

void BM_FleetSave(benchmark::State& state, const std::string& family) {
  const core::DetectorFleet& fleet = fitted_fleet(family);
  std::size_t bytes = 0;
  for (auto _ : state) {
    persist::Encoder enc;
    fleet.save(enc);
    bytes = enc.bytes().size();
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFleetMembers));
  state.counters["block_B_per_member"] =
      static_cast<double>(bytes) / kFleetMembers;
}
BENCHMARK_CAPTURE(BM_FleetSave, kld, std::string("kld"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetSave, ckld, std::string("ckld"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetSave, kld_lite, std::string("kld-lite"))
    ->Unit(benchmark::kMillisecond);

void BM_FleetRestore(benchmark::State& state, const std::string& family) {
  const std::string block = fleet_block(family);
  double heap = 0.0;
  {
    const std::size_t before = mallinfo2().uordblks;
    persist::Decoder dec(block);
    const core::DetectorFleet fleet = core::DetectorFleet::restore(dec, 0);
    heap = static_cast<double>(mallinfo2().uordblks - before);
  }
  for (auto _ : state) {
    persist::Decoder dec(block);
    core::DetectorFleet fleet = core::DetectorFleet::restore(dec, 0);
    state.PauseTiming();
    fleet = {};  // freed outside the timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFleetMembers));
  state.counters["block_B_per_member"] =
      static_cast<double>(block.size()) / kFleetMembers;
  state.counters["heap_B_per_member"] = heap / kFleetMembers;
}
BENCHMARK_CAPTURE(BM_FleetRestore, kld, std::string("kld"))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_FleetRestore, ckld, std::string("ckld"))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_FleetRestore, kld_lite, std::string("kld-lite"))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
