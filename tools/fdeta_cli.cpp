// fdeta - command-line front end for the F-DETA library.
//
// Subcommands:
//   generate  synthesize a CER-like smart-meter dataset to CSV
//   summary   describe a dataset CSV
//   inject    forge one consumer's week with an attack vector
//   fit       fit the pipeline on a dataset and save a model checkpoint
//   detect    run the detector panel over the test weeks of a dataset
//
// Examples:
//   fdeta generate --consumers 50 --weeks 30 --seed 7 --out actual.csv
//   fdeta inject --in actual.csv --consumer 1004 --week 24
//         --attack integrated-over --train-weeks 24 --out reported.csv
//   fdeta fit --in actual.csv --train-weeks 24 --save-model model.fdeta
//   fdeta detect --in reported.csv --model model.fdeta
//   fdeta detect --in reported.csv --baseline actual.csv --train-weeks 24
//
// The fit/detect split is the warm-start serving path: a head-end fits once
// offline and every serving process restores the fitted state from the
// checkpoint in milliseconds instead of refitting from raw readings.
// Without --model, detect falls back to fitting in-process.
//
// Every subcommand accepts --metrics-out <file>: after a successful run the
// process-wide metrics registry (pipeline/monitor/pool counters, latency
// histograms) is written there as JSON and summarised on stderr.
//
// Forensics flags (also on every subcommand):
//   --trace-out F   record spans (pool tasks, pipeline sweeps, monitor
//                   batches, checkpoint IO, head-end deliveries) and write a
//                   Chrome trace-event JSON file loadable in Perfetto
//   --events-out F  record domain events (alert_raised, alert_excused,
//                   investigation_step, model_restored) as JSONL
// `detect --explain` additionally prints per-bin KLD contributions for every
// flagged consumer-week and attaches them to alert_raised events.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <algorithm>
#include <string>

#include "ami/faults.h"
#include "ami/network.h"
#include "attack/arima_attack.h"
#include "attack/collusion.h"
#include "attack/integrated_arima_attack.h"
#include "attack/optimal_swap.h"
#include "common/cli_args.h"
#include "common/csv.h"
#include "common/error.h"
#include "core/detector_registry.h"
#include "core/kld_detector.h"
#include "core/online_monitor.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "eval/arima_detector.h"
#include "eval/evaluation.h"
#include "eval/integrated_arima_detector.h"
#include "grid/balance.h"
#include "grid/investigate.h"
#include "grid/serialize.h"
#include "meter/weekly_stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "pricing/billing.h"

using namespace fdeta;

namespace {

using Args = CliArgs;

meter::Dataset load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DataError("cannot open " + path);
  return meter::Dataset::load_csv(in);
}

void save(const meter::Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw DataError("cannot open " + path + " for writing");
  dataset.save_csv(out);
}

int cmd_generate(const Args& args) {
  datagen::GeneratorConfig config;
  const auto consumers = args.get_count("consumers", 50);
  config.weeks = args.get_count("weeks", 30);
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 20160628));
  config.sme = std::max<std::size_t>(1, consumers * 36 / 500);
  config.unclassified = std::max<std::size_t>(1, consumers * 60 / 500);
  config.residential = consumers - config.sme - config.unclassified;

  const auto dataset = datagen::generate_dataset(config);
  save(dataset, args.require_value("out"));
  const auto s = meter::summarize(dataset);
  std::printf("wrote %zu consumers x %zu weeks (%zu res / %zu sme / %zu "
              "other), mean %.2f kW\n",
              dataset.consumer_count(), dataset.week_count(), s.residential,
              s.sme, s.unclassified, s.mean_kw);
  return 0;
}

int cmd_summary(const Args& args) {
  const auto dataset = load(args.require_value("in"));
  const auto s = meter::summarize(dataset);
  std::printf("consumers: %zu (%zu residential, %zu sme, %zu unclassified)\n",
              dataset.consumer_count(), s.residential, s.sme, s.unclassified);
  std::printf("weeks: %zu (%zu readings per consumer)\n",
              dataset.week_count(), dataset.slot_count());
  std::printf("mean demand: %.3f kW, max reading: %.3f kW\n", s.mean_kw,
              s.max_kw);
  std::printf("%-8s %-14s %12s %12s\n", "id", "type", "mean kW", "kWh/week");
  for (const auto& c : dataset.consumers()) {
    double total = 0.0;
    for (double v : c.readings) total += v;
    const double mean = total / static_cast<double>(c.readings.size());
    std::printf("%-8u %-14s %12.3f %12.1f\n", c.id,
                std::string(to_string(c.type)).c_str(), mean,
                mean * 168.0);
  }
  return 0;
}

// Coordinated sibling under-reporting (`inject --attack collusion`): the
// --group-size consumers under the deepest shared transformer of --topology
// each shave --shave of the attacked week.  Each colluder stays under the
// per-consumer threshold; only the feeder-level hierarchy layer (`detect
// --hierarchy`) sees the joint residual.
int cmd_inject_collusion(const Args& args) {
  const auto dataset = load(args.require_value("in"));
  std::ifstream tin(args.require_value("topology"));
  if (!tin) throw DataError("inject: cannot open topology file");
  const auto topology = grid::load_topology(tin);
  const long week_raw = args.get_long("week", -1);
  require(week_raw >= 0, "inject: --week is required");
  const auto week = static_cast<std::size_t>(week_raw);
  const auto group_size = args.get_count("group-size", 4);
  const double shave = args.get_double("shave", 0.05);

  const auto scenario = attack::make_collusion_scenario(
      topology, dataset, group_size, shave, week);
  const auto forged = attack::apply_injections(dataset, scenario.injections);
  save(forged, args.require_value("out"));

  double stolen_kwh = 0.0;
  for (const auto& injection : scenario.injections) {
    const auto clean = dataset.consumer(injection.consumer_index).week(week);
    stolen_kwh +=
        pricing::energy(clean) - pricing::energy(injection.reported_week);
  }
  std::printf("collusion: %zu colluders under node %d shave %.1f%% of week "
              "%zu (%.1f kWh total); consumers:",
              scenario.consumers.size(), scenario.node, 100.0 * shave, week,
              stolen_kwh);
  for (const std::size_t i : scenario.consumers) {
    std::printf(" %u", dataset.consumer(i).id);
  }
  std::printf("\n");
  return 0;
}

int cmd_inject(const Args& args) {
  if (args.get("attack", "integrated-over") == "collusion") {
    return cmd_inject_collusion(args);
  }
  auto dataset = load(args.require_value("in"));
  const auto id = static_cast<meter::ConsumerId>(
      args.get_long("consumer", -1));
  const auto index = dataset.index_of(id);
  if (!index) throw InvalidArgument("no consumer with id " +
                                    std::to_string(id));
  const long week_raw = args.get_long("week", -1);
  require(week_raw >= 0, "inject: --week is required");
  const auto week = static_cast<std::size_t>(week_raw);
  const auto train_weeks = args.get_count("train-weeks", 24);
  const std::string kind = args.get("attack", "integrated-over");
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 7));

  auto& series = dataset.consumer(*index);
  require(week < series.week_count(), "inject: week out of range");
  require(train_weeks <= week,
          "inject: attacked week must come after the training window");

  const std::span<const Kw> train{series.readings.data(),
                                  train_weeks * kSlotsPerWeek};
  const auto model = ts::ArimaModel::fit(train, {});
  const auto history = train.subspan(train.size() - 2 * kSlotsPerWeek);
  const auto wstats = meter::weekly_stats(train);
  Rng rng(seed);

  std::vector<Kw> vector;
  if (kind == "integrated-over" || kind == "integrated-under") {
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = kind == "integrated-over";
    vector = attack::integrated_arima_attack_vector(model, history, wstats,
                                                    kSlotsPerWeek, rng, cfg);
  } else if (kind == "arima-over" || kind == "arima-under") {
    attack::ArimaAttackConfig cfg;
    cfg.direction = kind == "arima-over" ? attack::Direction::kOverReport
                                         : attack::Direction::kUnderReport;
    vector = attack::arima_attack_vector(model, history, kSlotsPerWeek, cfg);
  } else if (kind == "swap") {
    const auto swap = attack::optimal_swap_attack(
        series.week(week), pricing::nightsaver(), 0, &model, history, {});
    vector = swap.reported;
  } else {
    throw InvalidArgument("unknown --attack '" + kind +
                          "' (integrated-over|integrated-under|arima-over|"
                          "arima-under|swap|collusion)");
  }

  const auto clean = series.week(week);
  const auto tou = pricing::nightsaver();
  std::printf("injected %s on consumer %u week %zu: energy %.1f -> %.1f "
              "kWh, bill delta $%.2f\n",
              kind.c_str(), id, week, pricing::energy(clean),
              pricing::energy(vector),
              pricing::attacker_profit(clean, vector, tou));
  std::copy(vector.begin(), vector.end(),
            series.readings.begin() + week * kSlotsPerWeek);
  save(dataset, args.require_value("out"));
  return 0;
}

int cmd_evaluate(const Args& args) {
  // Runs the Tables II/III evaluation harness over a CSV dataset.
  const auto dataset = load(args.require_value("in"));
  core::EvaluationConfig config;
  config.split.train_weeks = args.get_count("train-weeks", 24);
  config.split.test_weeks =
      dataset.week_count() - config.split.train_weeks;
  require(dataset.week_count() > config.split.train_weeks + 1,
          "evaluate: horizon too short for the split");
  config.attack_vectors = args.get_count("vectors", 10);
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 7));

  const auto result = core::run_evaluation(dataset, config);
  std::printf("evaluated %zu consumers (%zu skipped)\n\n",
              result.evaluated_count(),
              result.consumers.size() - result.evaluated_count());
  std::printf("%-34s %8s %8s %8s\n", "Metric 1 (detected %)", "1B",
              "2A/2B", "3A/3B");
  for (std::size_t d = 0; d < core::kDetectorCount; ++d) {
    const auto kind = static_cast<core::DetectorKind>(d);
    std::printf("%-34s %7.1f%% %7.1f%% %7.1f%%\n", core::to_string(kind),
                result.metric1_percent(kind, core::AttackKind::k1B),
                result.metric1_percent(kind, core::AttackKind::k2A2B),
                result.metric1_percent(kind, core::AttackKind::k3A3B));
  }
  std::printf("\n%-34s %10s %10s %10s\n", "Metric 2 (stolen kWh)", "1B",
              "2A/2B", "3A/3B");
  for (std::size_t d = 0; d < core::kDetectorCount; ++d) {
    const auto kind = static_cast<core::DetectorKind>(d);
    std::printf("%-34s %10.0f %10.0f %10.0f\n", core::to_string(kind),
                result.metric2_kwh(kind, core::AttackKind::k1B),
                result.metric2_kwh(kind, core::AttackKind::k2A2B),
                result.metric2_kwh(kind, core::AttackKind::k3A3B));
  }
  return 0;
}

/// Builds the per-family detector options: the dedicated --bins /
/// --significance / --epsilon flags are shorthands for their kld.* keys and
/// seed the shared kld block, then every --detector-opt key=value
/// (repeatable) applies on top, so e.g.
/// `--detector-opt kld-lite.slots=24 --detector-opt kld.bins=12` tunes two
/// knobs in one invocation.  Every knob goes through apply_detector_option:
/// one parser, one set of range checks.
core::DetectorOptions detector_options_from(const Args& args) {
  core::DetectorOptions options;
  if (args.has("bins")) {
    core::apply_detector_option(
        options, "kld.bins=" + std::to_string(args.get_count("bins", 0)));
  }
  for (const std::string knob : {"significance", "epsilon"}) {
    if (args.has(knob)) {
      core::apply_detector_option(options,
                                  "kld." + knob + "=" + args.get(knob, ""));
    }
  }
  for (const std::string& spec : args.get_all("detector-opt")) {
    core::apply_detector_option(options, spec);
  }
  return options;
}

/// Resolves --detector against the registry (default "kld").  Fails fast
/// here, before any dataset loads or pipeline construction, naming the
/// registered families.
std::string detector_from(const Args& args) {
  const std::string name = args.get("detector", "kld");
  if (!core::is_registered_detector(name)) {
    throw InvalidArgument("unknown --detector '" + name + "' (registered: " +
                          core::registered_detector_names_joined() + ")");
  }
  return name;
}

/// Guards every score/threshold the CLI emits: a non-finite value would
/// print as a bare "inf"/"nan" token and poison any downstream parser, so
/// serving refuses to emit it (enable epsilon smoothing, the default, to
/// keep scores finite on out-of-support readings).
double finite_or_throw(double value, const char* what) {
  if (!std::isfinite(value)) {
    throw NumericalError(std::string(what) +
                         " is non-finite; refusing to emit it (run with "
                         "--epsilon > 0 to smooth empty baseline bins)");
  }
  return value;
}

int cmd_fit(const Args& args) {
  // Fits the pipeline on a trusted dataset and checkpoints the fitted state
  // (the offline half of the warm-start serving split).  Flag validation
  // runs before any dataset IO so a typo fails in milliseconds.
  const std::string detector = detector_from(args);
  const core::DetectorOptions detector_options = detector_options_from(args);

  const auto actual = load(args.require_value("in"));
  const auto train_weeks = args.get_count("train-weeks", 24);
  require(train_weeks < actual.week_count(),
          "fit: train-weeks exceeds the horizon");

  core::PipelineConfig config;
  config.split =
      meter::TrainTestSplit{.train_weeks = train_weeks,
                            .test_weeks = actual.week_count() - train_weeks};
  config.detector = detector;
  config.detector_options = detector_options;
  core::FdetaPipeline pipeline(config);
  pipeline.fit(actual);

  const std::string path = args.require_value("save-model");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw DataError("fit: cannot open " + path + " for writing");
  pipeline.save_model(out);
  std::printf("fitted %zu consumers on %zu training weeks (detector=%s, "
              "B=%zu, alpha=%.0f%%), model -> %s\n",
              pipeline.consumer_count(), train_weeks,
              config.detector.c_str(), detector_options.kld.bins,
              100.0 * detector_options.kld.significance, path.c_str());
  return 0;
}

int cmd_detect(const Args& args) {
  // Runs the five-step F-DETA pipeline (minus step 5: no topology here)
  // over every test week, so the run is fully accounted in the "pipeline."
  // metrics exposed via --metrics-out.
  // Flag validation first: an unknown --detector or --detector-opt fails
  // fast with the registered names/keys, before any CSV loads.
  if (args.has("detector")) detector_from(args);
  const core::DetectorOptions detector_options = detector_options_from(args);

  const auto reported = load(args.require_value("in"));
  const std::string baseline_path = args.get("baseline", "");
  const auto baseline =
      baseline_path.empty() ? reported : load(baseline_path);
  const std::string model_path = args.get("model", "");

  require(baseline.consumer_count() == reported.consumer_count(),
          "detect: baseline/reported consumer counts differ");
  require(baseline.week_count() == reported.week_count(),
          "detect: baseline/reported horizons differ");

  // Feeder-hierarchy layer: --topology enables the step-5 investigation over
  // the radial tree; --hierarchy additionally scores every internal node and
  // localises colluding sibling groups.  The per-consumer verdicts printed
  // below are byte-identical with and without --hierarchy (the feeder layer
  // only appends to the report and the event log).
  const bool hierarchy = args.has("hierarchy");
  const std::string topology_path = args.get("topology", "");
  require(!hierarchy || !topology_path.empty(),
          "detect: --hierarchy requires --topology");
  std::optional<grid::Topology> topology;
  if (!topology_path.empty()) {
    std::ifstream tin(topology_path);
    if (!tin) throw DataError("detect: cannot open topology " + topology_path);
    topology = grid::load_topology(tin);
    require(topology->consumer_count() == reported.consumer_count(),
            "detect: topology consumer count does not match the dataset");
  }

  const bool explain = args.has("explain");
  core::PipelineConfig config;
  config.explain = explain;
  config.hierarchy = hierarchy;
  config.max_missing_fraction =
      args.get_double("coverage-gate", config.max_missing_fraction);
  require(config.max_missing_fraction >= 0.0 &&
              config.max_missing_fraction <= 1.0,
          "detect: --coverage-gate out of [0,1]");
  core::FdetaPipeline pipeline(config);
  if (!model_path.empty()) {
    // Warm start: restore the fitted state saved by `fdeta fit`; the
    // checkpoint carries the detector family, split and detector options it
    // was fitted with.
    std::ifstream in(model_path, std::ios::binary);
    if (!in) throw DataError("detect: cannot open model " + model_path);
    pipeline.load_model(in);
    require(pipeline.consumer_count() == reported.consumer_count(),
            "detect: model consumer count does not match the dataset");
    const std::string requested = args.get("detector", "");
    require(requested.empty() || requested == pipeline.config().detector,
            "detect: --detector disagrees with the model checkpoint");
  } else {
    // Cold path: fit in-process on the baseline dataset.
    config.split = meter::TrainTestSplit{
        .train_weeks =
            args.get_count("train-weeks", 24),
        .test_weeks = 0};
    require(config.split.train_weeks < reported.week_count(),
            "detect: train-weeks exceeds the horizon");
    config.split.test_weeks =
        reported.week_count() - config.split.train_weeks;
    config.detector = detector_from(args);
    config.detector_options = detector_options;
    config.explain = explain;
    pipeline = core::FdetaPipeline(config);
    pipeline.fit(baseline);
  }
  const std::size_t train_weeks = pipeline.config().split.train_weeks;
  const double significance =
      pipeline.config().detector_options.kld.significance;
  const std::size_t bins = pipeline.config().detector_options.kld.bins;
  require(train_weeks < reported.week_count(),
          "detect: model training span exceeds the dataset horizon");
  const core::EvidenceCalendar calendar;  // no external evidence from CSV

  // Chaos harness: --fault-plan / --loss-rate replay the reported dataset
  // through a faulty AMI plane (ami/faults.h) and the pipeline judges what
  // the head-end actually collected, coverage gate and all.  --retries
  // enables the NACK retransmit pass; --seed pins the fault decisions.
  const std::string plan_spec = args.get("fault-plan", "");
  const double loss_rate = args.get_double("loss-rate", 0.0);
  std::optional<ami::CollectedReport> collected;
  if (!plan_spec.empty() || loss_rate > 0.0) {
    ami::FaultPlanConfig plan_config;
    if (!plan_spec.empty()) plan_config = ami::parse_fault_plan(plan_spec);
    if (loss_rate > 0.0) {
      require(loss_rate <= 1.0, "detect: --loss-rate out of [0,1]");
      plan_config.drop_rate = loss_rate;
    }
    plan_config.seed = static_cast<std::uint64_t>(
        args.get_long("seed", static_cast<long>(plan_config.seed)));

    ami::HeadEnd head_end(reported.consumer_count(), reported.slot_count());
    ami::MeterNetwork network(reported);
    network.set_fault_plan(ami::FaultPlan(plan_config));
    const auto retries = args.get_count("retries", 0);
    network.set_retransmit(
        {retries, args.get_count("backoff", 1)});
    // One delivery window per week, so each week gets its own NACK rounds.
    for (std::size_t w = 0; w < reported.week_count(); ++w) {
      network.transmit(head_end, w * kSlotsPerWeek, (w + 1) * kSlotsPerWeek);
    }
    collected = ami::collect_reported(head_end, reported);
    std::printf("chaos: sent=%zu dropped=%zu retries=%zu late=%zu "
                "quarantined=%zu duplicates=%zu stale=%zu missing=%zu\n",
                network.messages_sent(), network.messages_dropped(),
                network.messages_retried(), network.late_accepted(),
                head_end.quarantined_count(), head_end.duplicates_suppressed(),
                head_end.stale_rejected(), head_end.missing_count());
  }
  // What the detectors judge: the head-end's collected view when the chaos
  // harness ran, the reported CSV verbatim otherwise.
  const meter::Dataset& judged =
      collected.has_value() ? collected->dataset : reported;

  const auto status_tag = [](core::VerdictStatus status) {
    switch (status) {
      case core::VerdictStatus::kSuspectedAttacker: return "under";
      case core::VerdictStatus::kSuspectedVictim: return "over";
      case core::VerdictStatus::kExcused: return "excused";
      case core::VerdictStatus::kInsufficientData: return "insuf";
      default: return "anom";
    }
  };

  std::printf("%-8s", "week");
  std::printf("  flagged consumers (detector=%s, alpha=%.0f%%, B=%zu)\n",
              pipeline.config().detector.c_str(), 100.0 * significance,
              bins);
  // These tallies are computed from the printed report itself; the
  // cli_metrics_check test cross-checks them against the --metrics-out
  // JSON, whose counters come from the pipeline's own instrumentation.
  std::size_t weeks_scored = 0;
  std::size_t flagged_total = 0;
  std::size_t insufficient_total = 0;
  std::size_t hierarchy_nodes = 0;
  std::size_t feeder_alerts_total = 0;
  std::size_t collusion_groups_total = 0;
  for (std::size_t w = train_weeks; w < reported.week_count(); ++w) {
    std::optional<core::WeekCoverage> coverage;
    if (collected.has_value()) {
      coverage.emplace();
      coverage->missing_slots = collected->week_missing(w);
    }
    const auto report =
        pipeline.evaluate_week(baseline, judged, w, calendar,
                               topology.has_value() ? &*topology : nullptr,
                               coverage.has_value() ? &*coverage : nullptr);
    ++weeks_scored;
    std::printf("%-8zu", w);
    bool any = false;
    for (const auto& v : report.verdicts) {
      if (v.status == core::VerdictStatus::kNormal) continue;
      if (v.status == core::VerdictStatus::kInsufficientData) {
        // Not a theft flag: the week was too lossy to judge at all.
        std::printf(" %u(%s miss=%zu)", v.id, status_tag(v.status),
                    v.missing_slots);
        ++insufficient_total;
        any = true;
        continue;
      }
      std::printf(" %u(%s K=%.2f)", v.id, status_tag(v.status),
                  finite_or_throw(v.kld_score, "detect: KLD score"));
      ++flagged_total;
      any = true;
    }
    if (!any) std::printf(" -");
    std::printf("\n");
    if (report.feeder.has_value()) {
      const auto& feeder = *report.feeder;
      hierarchy_nodes = feeder.nodes.size();
      feeder_alerts_total += feeder.alert_count();
      collusion_groups_total += feeder.collusion.size();
      for (const auto& node : feeder.nodes) {
        if (!node.flagged) continue;
        std::printf("    feeder node %d (depth %d, %zu consumers): "
                    "score=%.3f residual=%.3f kW\n",
                    node.node, node.depth, node.consumers,
                    finite_or_throw(node.score, "detect: feeder score"),
                    node.residual_kw);
      }
      for (const auto& group : feeder.collusion) {
        std::printf("    collusion under node %d (%.3f kW):", group.node,
                    group.residual_kw);
        for (const std::size_t i : group.consumers) {
          std::printf(" %u", reported.consumer(i).id);
        }
        std::printf("\n");
      }
    }
    if (explain) {
      // Per-bin contributions: which consumption bins pushed the raw K_A
      // over the family threshold (the bins decompose the RAW score; the
      // verdict line above carries the calibrated quantile).  Bins with zero
      // week mass contribute nothing and are elided.
      for (const auto& v : report.verdicts) {
        if (!v.explanation) continue;
        std::printf("    consumer %u raw=%.3f raw_thr=%.3f per-bin bits:",
                    v.id, v.explanation->raw_score,
                    v.explanation->raw_threshold);
        for (const auto& c : v.explanation->bins) {
          if (c.bits == 0.0) continue;
          std::printf(" %zu:%+.3f", c.bin,
                      finite_or_throw(c.bits, "detect: bin contribution"));
        }
        std::printf("\n");
      }
    }
  }
  std::printf("weeks_scored=%zu consumer_weeks=%zu flagged_total=%zu\n",
              weeks_scored, weeks_scored * reported.consumer_count(),
              flagged_total);
  if (hierarchy) {
    std::printf("hierarchy: nodes=%zu feeder_alerts=%zu "
                "collusion_groups=%zu\n",
                hierarchy_nodes, feeder_alerts_total, collusion_groups_total);
  }
  if (collected.has_value()) {
    std::printf("coverage: insufficient=%zu gate=%.2f\n", insufficient_total,
                pipeline.config().max_missing_fraction);
  }

  // Streaming replay (disable with --stream 0): feed the same test span
  // through an OnlineMonitor reading by reading, as the control-center loop
  // would see it from the head-end.  Alerts land in the event log and the
  // monitor's spans in the trace, so one detect run exercises the full
  // batch + online forensic surface.
  if (args.get_long("stream", 1) != 0) {
    core::OnlineMonitorConfig mconfig;
    mconfig.detector = pipeline.config().detector;
    mconfig.detector_options = pipeline.config().detector_options;
    mconfig.max_missing_fraction = pipeline.config().max_missing_fraction;
    core::OnlineMonitor monitor(mconfig);
    monitor.fit(baseline, pipeline.config().split);

    // Telemetry time series: --stats-interval N scrapes the registry every
    // N logical slots and prints one live scoreboard line per frame;
    // --series-out F writes every frame as JSONL.  Scrapes happen at chunk
    // boundaries of the slot clock, so under a fixed seed the deterministic
    // half of every frame is identical for any shard x thread layout.
    const long stats_interval_raw = args.get_long("stats-interval", 0);
    require(stats_interval_raw >= 0, "detect: --stats-interval must be >= 0");
    const std::string series_path = args.get("series-out", "");
    const bool scraping = stats_interval_raw > 0 || !series_path.empty();
    obs::MetricsScraperConfig scfg;
    scfg.interval_slots = stats_interval_raw > 0
                              ? static_cast<std::uint64_t>(stats_interval_raw)
                              : static_cast<std::uint64_t>(kSlotsPerWeek);
    obs::MetricsScraper scraper(scfg);
    scraper.start(train_weeks * kSlotsPerWeek);
    const bool live_board = stats_interval_raw > 0;
    if (live_board) std::printf("%s\n", obs::scoreboard_header().c_str());
    const auto scrape_at = [&](std::uint64_t slot, bool force) {
      if (!force && !scraper.due(slot)) return;
      // Refresh the drift/burst gauges right before the snapshot - a fixed
      // point of the reading order, so the gauge values are deterministic.
      monitor.refresh_health_gauges();
      const obs::SeriesFrame& frame = scraper.scrape(slot);
      if (live_board) {
        std::printf("%s\n", obs::scoreboard_line(frame).c_str());
      }
    };
    // Deliver in chunks of at most one scrape interval, so a sub-week
    // --stats-interval still observes every frame boundary.
    const std::size_t chunk_slots = static_cast<std::size_t>(std::min<
        std::uint64_t>(scfg.interval_slots, kSlotsPerWeek));

    std::size_t readings = 0;
    std::size_t over = 0;
    std::size_t under = 0;
    for (std::size_t w = train_weeks; w < reported.week_count(); ++w) {
      for (std::size_t chunk = 0; chunk < kSlotsPerWeek;
           chunk += chunk_slots) {
        const std::size_t chunk_end =
            std::min(chunk + chunk_slots, static_cast<std::size_t>(
                                              kSlotsPerWeek));
        std::vector<core::Reading> batch;
        batch.reserve(reported.consumer_count() * (chunk_end - chunk));
        // Slot-major: all consumers' slot-t readings arrive before any
        // slot-t+1 reading, as one head-end delivery per slot would.  Under
        // the chaos harness, slots the head-end never accepted arrive as
        // missing markers (counted, never applied).
        for (std::size_t s = chunk; s < chunk_end; ++s) {
          const auto slot = static_cast<SlotIndex>(w * kSlotsPerWeek + s);
          for (std::size_t c = 0; c < reported.consumer_count(); ++c) {
            const bool miss =
                collected.has_value() && collected->missing[c][slot] != 0;
            batch.push_back(core::Reading{
                c, slot, judged.consumer(c).readings[slot], miss});
          }
        }
        const auto alerts = monitor.ingest_batch(batch);
        readings += batch.size();
        for (const auto& a : alerts) {
          ++(a.direction == core::AlertDirection::kOverReport ? over
                                                              : under);
        }
        if (scraping) {
          scrape_at(w * kSlotsPerWeek + chunk_end, /*force=*/false);
        }
      }
    }
    if (scraping) {
      // Final partial window, so the series always covers the whole span.
      const std::uint64_t final_slot = reported.week_count() * kSlotsPerWeek;
      const auto& frames = scraper.store().frames();
      if (frames.empty() || frames.back().slot < final_slot) {
        scrape_at(final_slot, /*force=*/true);
      }
      if (!series_path.empty()) {
        std::ofstream out(series_path);
        if (!out) {
          throw DataError("detect: cannot open " + series_path +
                          " for writing");
        }
        out << scraper.store().to_jsonl();
      }
    }
    std::printf("stream: readings=%zu alerts=%zu over=%zu under=%zu\n",
                readings, monitor.alerts().size(), over, under);
  }
  return 0;
}

int cmd_stats(const Args& args) {
  // Post-hoc triage: renders a --series-out JSONL file as the same
  // scoreboard table `detect --stats-interval` prints live.
  std::ifstream in(args.require_value("in"));
  if (!in) throw DataError("stats: cannot open input file");
  std::printf("%s\n", obs::scoreboard_header().c_str());
  std::size_t frames = 0;
  std::size_t skipped = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto frame = obs::parse_series_frame(line);
    if (!frame) {
      ++skipped;
      continue;
    }
    std::printf("%s\n", obs::scoreboard_line(*frame).c_str());
    ++frames;
  }
  if (skipped > 0) {
    std::fprintf(stderr, "stats: skipped %zu non-frame lines\n", skipped);
  }
  std::printf("frames=%zu\n", frames);
  require(frames > 0, "stats: no series frames in input");
  return 0;
}

int cmd_topology(const Args& args) {
  // Build a random radial feeder for N consumers and write it to a file.
  const auto consumers = args.get_count("consumers", 50);
  const auto fanout = args.get_count("fanout", 4);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 7));
  Rng rng(seed);
  const auto topology = grid::Topology::random_radial(
      consumers, fanout, rng, args.get_double("loss", 0.02));
  std::ofstream out(args.require_value("out"));
  if (!out) throw DataError("cannot open output file");
  grid::save_topology(topology, out);
  std::printf("wrote %zu-node topology (%zu consumers, max depth ", 
              topology.node_count(), topology.consumer_count());
  int depth = 0;
  for (std::size_t i = 0; i < topology.consumer_count(); ++i) {
    depth = std::max(depth, topology.depth(topology.consumer_leaf(i)));
  }
  std::printf("%d)\n", depth);
  return 0;
}

int cmd_investigate(const Args& args) {
  // Balance-check a week of reported vs baseline readings over a topology
  // file and localise the imbalance: --mode case2 (default) runs the
  // portable-meter search, --mode case1 assumes every internal node is
  // metered and works from the full set of W events.  Either way the
  // decision path is printed as an audit trail and recorded in the event
  // log (--events-out).
  std::ifstream tin(args.require_value("topology"));
  if (!tin) throw DataError("cannot open topology file");
  const auto topology = grid::load_topology(tin);
  const auto actual = load(args.require_value("baseline"));
  const auto reported = load(args.require_value("in"));
  require(topology.consumer_count() == actual.consumer_count() &&
              actual.consumer_count() == reported.consumer_count(),
          "investigate: consumer counts disagree");
  const long week_raw = args.get_long("week", -1);
  require(week_raw >= 0, "investigate: --week is required");
  const auto week = static_cast<std::size_t>(week_raw);

  std::vector<Kw> actual_avg(actual.consumer_count());
  std::vector<Kw> reported_avg(actual.consumer_count());
  for (std::size_t c = 0; c < actual.consumer_count(); ++c) {
    double a = 0.0, r = 0.0;
    const auto wa = actual.consumer(c).week(week);
    const auto wr = reported.consumer(c).week(week);
    for (std::size_t t = 0; t < wa.size(); ++t) {
      a += wa[t];
      r += wr[t];
    }
    actual_avg[c] = a / static_cast<double>(wa.size());
    reported_avg[c] = r / static_cast<double>(wr.size());
  }

  const double tolerance = args.get_double("tolerance", 1e-3);
  const std::string mode = args.get("mode", "case2");
  obs::EventLog& events = obs::default_event_log();

  grid::InvestigationResult result;
  if (mode == "case1") {
    // Case 1: every internal node carries a trusted balance meter; the W
    // events alone localise the theft.
    const auto outcome = grid::run_balance_checks(
        topology, actual_avg, reported_avg, /*compromised_meters=*/{},
        tolerance);
    result = grid::investigate_case1(topology, outcome, &events);
  } else if (mode == "case2") {
    result = grid::investigate_case2(topology, actual_avg, reported_avg,
                                     tolerance, &events);
  } else {
    throw InvalidArgument("unknown --mode '" + mode + "' (case1|case2)");
  }

  std::printf("audit trail (%s, %zu steps):\n", mode.c_str(),
              result.steps.size());
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    const auto& s = result.steps[i];
    std::printf("  %2zu. node %d (depth %d): %s", i, s.node, s.depth,
                grid::to_string(s.branch));
    if (s.imbalance_kw > 0.0) {
      std::printf(", imbalance %.3f kW", s.imbalance_kw);
    }
    if (s.suspects > 0) std::printf(", %zu suspects", s.suspects);
    std::printf("\n");
  }

  if (result.suspects.empty()) {
    std::printf("week %zu: books balance, nothing to investigate "
                "(%zu %s checks)\n",
                week, result.checks_performed,
                mode == "case1" ? "meter" : "portable");
    return 0;
  }
  std::printf("week %zu: balance failure localised to node %d after %zu "
              "%s checks; inspect meters:",
              week, result.localized_node, result.checks_performed,
              mode == "case1" ? "meter" : "portable");
  for (const std::size_t s : result.suspects) {
    std::printf(" %u", reported.consumer(s).id);
  }
  std::printf("\n");
  return 0;
}

int usage() {
  std::printf(
      "usage: fdeta <command> [--flag value ...]\n\n"
      "commands:\n"
      "  generate  --out F [--consumers N] [--weeks W] [--seed S]\n"
      "  summary   --in F\n"
      "  inject    --in F --out F --consumer ID --week W\n"
      "            [--attack integrated-over|integrated-under|arima-over|\n"
      "             arima-under|swap|collusion] [--train-weeks T] [--seed S]\n"
      "            collusion: --topology F [--group-size K] [--shave X]\n"
      "            (K siblings under the deepest shared transformer each\n"
      "             shave fraction X of the attacked week; no --consumer)\n"
      "  fit       --in F --save-model F [--train-weeks T]\n"
      "            [--detector kld|ckld|kld-lite]\n"
      "            [--significance A] [--bins B] [--epsilon E]\n"
      "            [--detector-opt key=value ...]\n"
      "  detect    --in F [--model F] [--baseline F] [--train-weeks T]\n"
      "            [--detector kld|ckld|kld-lite]\n"
      "            [--significance A] [--bins B] [--epsilon E]\n"
      "            [--detector-opt key=value ...]\n"
      "            [--explain] [--stream 0|1]\n"
      "            [--topology F]  run the step-5 balance investigation\n"
      "                            over the radial tree\n"
      "            [--hierarchy]   also score every internal feeder node and\n"
      "                            localise colluding sibling groups\n"
      "                            (requires --topology)\n"
      "            [--stats-interval N]  print a live scoreboard line every\n"
      "                                  N logical slots of the stream replay\n"
      "            [--series-out F]      write the telemetry time series\n"
      "                                  (one JSON frame per line) to F\n"
      "            [--fault-plan drop=X,dup=X,reorder=X,delay=N,corrupt=X,\n"
      "             burst-every=N,burst-len=N,seed=S] [--loss-rate X]\n"
      "            [--seed S] [--retries N] [--backoff B] [--coverage-gate F]\n"
      "  stats     --in F   render a --series-out JSONL file as the live\n"
      "                     scoreboard table\n"
      "  evaluate  --in F [--train-weeks T] [--vectors V] [--seed S]\n"
      "  topology  --out F [--consumers N] [--fanout K] [--loss X]\n"
      "  investigate --topology F --baseline F --in F --week W\n"
      "            [--tolerance KW] [--mode case1|case2]\n\n"
      "every command also accepts:\n"
      "  --metrics-out F  write the run's telemetry to F and print a\n"
      "                   summary table on stderr\n"
      "  --metrics-format json|text|prom\n"
      "                   encoding for --metrics-out: JSON exposition\n"
      "                   (default), the human table, or Prometheus text\n"
      "  --trace-out F    record spans; write Chrome trace-event JSON to F\n"
      "                   (loads in Perfetto / chrome://tracing)\n"
      "  --events-out F   record domain events (alerts, investigation\n"
      "                   steps, model restores) as JSONL to F\n\n"
      "--detector-opt is repeatable; per-family keys:\n%s\n",
      core::detector_option_help().c_str());
  return 2;
}

/// Validates --metrics-format early (before any command work), returning
/// the requested format ("json" default).
std::string metrics_format_from(const Args& args) {
  const std::string format = args.get("metrics-format", "json");
  require(format == "json" || format == "text" || format == "prom",
          "unknown --metrics-format '" + format + "' (json|text|prom)");
  return format;
}

/// Writes the process-wide metrics registry to --metrics-out (when given)
/// in the --metrics-format encoding (JSON exposition by default, "text" for
/// the human table, "prom" for the Prometheus text exposition) and prints
/// the human summary table on stderr.
void emit_metrics(const Args& args) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return;
  const std::string format = metrics_format_from(args);
  const auto snapshot = obs::default_registry().snapshot();
  std::ofstream out(path);
  if (!out) throw DataError("cannot open " + path + " for writing");
  if (format == "prom") {
    out << obs::to_prometheus(snapshot);
  } else if (format == "text") {
    out << snapshot.to_text();
  } else {
    out << snapshot.to_json();
  }
  std::fputs(snapshot.to_text().c_str(), stderr);
}

/// Writes the recorded spans as Chrome trace-event JSON to --trace-out.
void emit_trace(const Args& args) {
  const std::string path = args.get("trace-out", "");
  if (path.empty()) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  std::ofstream out(path);
  if (!out) throw DataError("cannot open " + path + " for writing");
  out << tracer.chrome_trace_json();
}

/// Writes the recorded domain events as JSONL to --events-out.
void emit_events(const Args& args) {
  const std::string path = args.get("events-out", "");
  if (path.empty()) return;
  obs::EventLog& log = obs::default_event_log();
  log.disable();
  std::ofstream out(path);
  if (!out) throw DataError("cannot open " + path + " for writing");
  log.write(out);
}

int run_command(const std::string& command, const Args& args) {
  if (command == "generate") return cmd_generate(args);
  if (command == "summary") return cmd_summary(args);
  if (command == "inject") return cmd_inject(args);
  if (command == "fit") return cmd_fit(args);
  if (command == "detect") return cmd_detect(args);
  if (command == "stats") return cmd_stats(args);
  if (command == "evaluate") return cmd_evaluate(args);
  if (command == "topology") return cmd_topology(args);
  if (command == "investigate") return cmd_investigate(args);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    metrics_format_from(args);  // fail fast on a bad --metrics-format
    if (!args.get("trace-out", "").empty()) obs::Tracer::instance().enable();
    if (!args.get("events-out", "").empty()) obs::default_event_log().enable();
    const int code = run_command(command, args);
    if (code == 0) {
      emit_metrics(args);
      emit_trace(args);
      emit_events(args);
    }
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
