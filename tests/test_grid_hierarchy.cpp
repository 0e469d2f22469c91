// Feeder-level hierarchical verification (ROADMAP item 3), pinned by
// topology-randomized properties:
//
//   - conservation: a node's signed balance residual equals the sum of its
//     children's residuals (loss leaves included), on seeded random radial
//     trees;
//   - zero feeder alerts on clean fleets (balance mode has exactly-zero
//     physical residuals regardless of seasonal drift);
//   - collusion detection is monotone in the colluding-group size;
//   - feeder scores live on the same calibrated [0, 1] scale as consumer
//     scores;
//   - hierarchy-on vs hierarchy-off differential: per-consumer verdicts and
//     the PR 4 event log are byte-identical, the hierarchy only APPENDS
//     feeder events;
//   - checkpoint round-trips are byte-stable.
//
// The GoldenCollusion test pins the k-siblings x loss-fraction detection
// matrix (per-consumer kld vs feeder-level) to tests/golden/
// collusion_matrix.csv.  Regenerate after an intentional change with
//   FDETA_REGEN_GOLDEN=1 ctest -R GoldenCollusion
// and commit the updated CSV alongside the change that moved it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/collusion.h"
#include "attack/injector.h"
#include "common/error.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "grid/hierarchy/feeder_monitor.h"
#include "grid/hierarchy/residuals.h"
#include "grid/topology.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "persist/binary_io.h"

namespace fdeta {
namespace {

constexpr std::size_t kConsumers = 48;
constexpr std::size_t kWeeks = 20;
constexpr std::size_t kTrainWeeks = 16;
constexpr std::size_t kAttackWeek = 17;

meter::TrainTestSplit split() {
  return {.train_weeks = kTrainWeeks, .test_weeks = kWeeks - kTrainWeeks};
}

grid::Topology make_topology(std::uint64_t seed, double loss = 0.02) {
  Rng rng(seed);
  return grid::Topology::random_radial(kConsumers, 4, rng, loss);
}

hierarchy::FeederConfig quiet_config(obs::MetricsRegistry* metrics,
                                     obs::EventLog* events = nullptr) {
  hierarchy::FeederConfig config;
  config.metrics = metrics;
  config.events = events;
  return config;
}

// ---------------------------------------------------------------------------
// Conservation: residuals aggregate exactly up the tree.

TEST(NodeResiduals, ConservationOnRandomRadialTrees) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull, 101ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed);
    const auto topology =
        grid::Topology::random_radial(30 + seed % 17, 5, rng, 0.04);
    // Random positive demands; reported = actual with a few perturbed
    // consumers, so residuals are non-trivial at some nodes and zero at
    // others.
    std::vector<Kw> actual(topology.consumer_count());
    std::vector<Kw> reported(topology.consumer_count());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      actual[i] = 0.5 + rng.uniform() * 2.0;
      reported[i] = (i % 5 == 0) ? actual[i] * 0.9 : actual[i];
    }
    const auto residuals =
        grid::NodeResiduals::compute(topology, actual, reported);

    for (std::size_t id = 0; id < topology.node_count(); ++id) {
      const auto nid = static_cast<grid::NodeId>(id);
      const grid::Node& node = topology.node(nid);
      if (node.kind != grid::NodeKind::kInternal) continue;
      double child_sum = 0.0;
      for (const grid::NodeId c : node.children) {
        child_sum += residuals.signed_kw(c);
      }
      EXPECT_NEAR(residuals.signed_kw(nid), child_sum, 1e-9)
          << "node " << nid;
      EXPECT_DOUBLE_EQ(residuals.imbalance_kw(nid),
                       std::abs(residuals.signed_kw(nid)));
    }
  }
}

TEST(NodeResiduals, CleanFleetIsZeroEverywhereDespiteLoss) {
  Rng rng(5);
  const auto topology = grid::Topology::random_radial(24, 4, rng, 0.15);
  std::vector<Kw> demand(topology.consumer_count());
  for (auto& d : demand) d = 0.3 + rng.uniform();
  const auto residuals =
      grid::NodeResiduals::compute(topology, demand, demand);
  for (std::size_t id = 0; id < topology.node_count(); ++id) {
    EXPECT_EQ(residuals.signed_kw(static_cast<grid::NodeId>(id)), 0.0)
        << "node " << id;
    EXPECT_FALSE(residuals.check_fails(static_cast<grid::NodeId>(id), 1e-12));
  }
}

// ---------------------------------------------------------------------------
// FeederMonitor properties.

TEST(FeederMonitor, CleanFleetRaisesNoFeederAlerts) {
  for (const std::uint64_t seed : {3ull, 11ull, 42ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const auto topology = make_topology(seed);
    const auto actual = datagen::small_dataset(kConsumers, kWeeks, seed);
    obs::MetricsRegistry metrics;
    hierarchy::FeederMonitor monitor(topology, quiet_config(&metrics));
    monitor.fit(actual, split());
    for (std::size_t w = kTrainWeeks; w < kWeeks; ++w) {
      const auto report = monitor.evaluate_week(actual, actual, w);
      EXPECT_EQ(report.alert_count(), 0u) << "week " << w;
      EXPECT_TRUE(report.collusion.empty()) << "week " << w;
    }
  }
}

TEST(FeederMonitor, ScoresAreCalibratedLikeConsumerScores) {
  const auto topology = make_topology(9);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 9);
  obs::MetricsRegistry metrics;
  hierarchy::FeederConfig config = quiet_config(&metrics);
  hierarchy::FeederMonitor monitor(topology, config);
  monitor.fit(actual, split());
  const auto report = monitor.evaluate_week(actual, actual, kTrainWeeks);
  ASSERT_FALSE(report.nodes.empty());
  for (const auto& node : report.nodes) {
    EXPECT_GE(node.score, 0.0) << "node " << node.node;
    EXPECT_LE(node.score, 1.0) << "node " << node.node;
    EXPECT_DOUBLE_EQ(node.threshold,
                     1.0 - config.detector_options.kld.significance)
        << "node " << node.node;
  }
}

// Localized colluders (by count) must not decrease as the group grows: a
// wider group moves a wider joint residual through the shared feeder.
TEST(FeederMonitor, CollusionDetectionMonotoneInGroupSize) {
  const std::uint64_t seed = 11;
  const auto topology = make_topology(seed);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, seed);

  std::size_t previous_localized = 0;
  for (const std::size_t k : {2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "group_size=" << k);
    const auto scenario = attack::make_collusion_scenario(
        topology, actual, k, /*shave_fraction=*/0.03, kAttackWeek);
    ASSERT_EQ(scenario.consumers.size(), k);
    const auto reported =
        attack::apply_injections(actual, scenario.injections);

    obs::MetricsRegistry metrics;
    hierarchy::FeederMonitor monitor(topology, quiet_config(&metrics));
    monitor.fit(actual, split());
    const auto report = monitor.evaluate_week(actual, reported, kAttackWeek);

    std::size_t localized = 0;
    for (const auto& group : report.collusion) {
      for (const std::size_t i : group.consumers) {
        for (const std::size_t colluder : scenario.consumers) {
          if (i == colluder) ++localized;
        }
      }
    }
    EXPECT_GE(localized, previous_localized);
    previous_localized = localized;
  }
  EXPECT_GT(previous_localized, 0u)
      << "the widest group was never localized; monotonicity is vacuous";
}

TEST(FeederMonitor, FitStreamingMatchesFitBitExactly) {
  const auto topology = make_topology(13);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 13);
  obs::MetricsRegistry metrics;

  hierarchy::FeederMonitor batch(topology, quiet_config(&metrics));
  batch.fit(actual, split());
  hierarchy::FeederMonitor streaming(topology, quiet_config(&metrics));
  streaming.fit_streaming(
      kConsumers, [&](std::size_t i) { return actual.consumer(i); }, split());

  persist::Encoder a, b;
  batch.save_state(a);
  streaming.save_state(b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(FeederMonitor, CheckpointRoundTripIsByteStable) {
  const auto topology = make_topology(17);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 17);
  const auto scenario = attack::make_collusion_scenario(
      topology, actual, 4, 0.05, kAttackWeek);
  const auto reported = attack::apply_injections(actual, scenario.injections);
  obs::MetricsRegistry metrics;

  hierarchy::FeederMonitor monitor(topology, quiet_config(&metrics));
  monitor.fit(actual, split());
  persist::Encoder enc;
  monitor.save_state(enc);

  hierarchy::FeederMonitor restored(topology, quiet_config(&metrics));
  persist::Decoder dec(enc.bytes());
  restored.restore_state(dec);
  ASSERT_TRUE(restored.fitted());

  // Same evaluation bytes...
  const auto want = monitor.evaluate_week(actual, reported, kAttackWeek);
  const auto got = restored.evaluate_week(actual, reported, kAttackWeek);
  EXPECT_EQ(hierarchy::to_text(want), hierarchy::to_text(got));
  // ...and the re-saved state matches byte for byte (both monitors advanced
  // their baselines through the same week).
  persist::Encoder again_a, again_b;
  monitor.save_state(again_a);
  restored.save_state(again_b);
  EXPECT_EQ(again_a.bytes(), again_b.bytes());
}

TEST(FeederMonitor, RestoreRejectsMismatchedConfig) {
  const auto topology = make_topology(19);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 19);
  obs::MetricsRegistry metrics;
  hierarchy::FeederMonitor monitor(topology, quiet_config(&metrics));
  monitor.fit(actual, split());
  persist::Encoder enc;
  monitor.save_state(enc);

  hierarchy::FeederConfig other = quiet_config(&metrics);
  other.collusion_share = 0.5;
  hierarchy::FeederMonitor mismatched(topology, other);
  persist::Decoder dec(enc.bytes());
  EXPECT_THROW(mismatched.restore_state(dec),
               DataError);
}

// ---------------------------------------------------------------------------
// Differential: the hierarchy only appends, never perturbs.

TEST(HierarchyDifferential, VerdictsAndEventLogIdenticalHierarchyOnVsOff) {
  const std::uint64_t seed = 11;
  const auto topology = make_topology(seed);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, seed);
  const auto scenario = attack::make_collusion_scenario(
      topology, actual, 4, 0.05, kAttackWeek);
  const auto reported = attack::apply_injections(actual, scenario.injections);
  const core::EvidenceCalendar calendar;

  const auto run = [&](bool hierarchy, obs::EventLog& log,
                       obs::MetricsRegistry& metrics) {
    core::PipelineConfig config;
    config.split = split();
    config.hierarchy = hierarchy;
    config.metrics = &metrics;
    config.events = &log;
    core::FdetaPipeline pipeline(config);
    pipeline.fit(actual);
    std::vector<core::PipelineReport> reports;
    for (std::size_t w = kTrainWeeks; w < kWeeks; ++w) {
      reports.push_back(
          pipeline.evaluate_week(actual, reported, w, calendar, &topology));
    }
    return reports;
  };

  obs::EventLog log_off, log_on;
  log_off.enable();
  log_on.enable();
  obs::MetricsRegistry metrics_off, metrics_on;
  const auto off = run(false, log_off, metrics_off);
  const auto on = run(true, log_on, metrics_on);

  ASSERT_EQ(off.size(), on.size());
  bool any_feeder_alert = false;
  for (std::size_t r = 0; r < off.size(); ++r) {
    ASSERT_EQ(off[r].verdicts.size(), on[r].verdicts.size());
    for (std::size_t i = 0; i < off[r].verdicts.size(); ++i) {
      const auto& a = off[r].verdicts[i];
      const auto& b = on[r].verdicts[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(a.kld_score, b.kld_score);
      EXPECT_EQ(a.kld_threshold, b.kld_threshold);
    }
    EXPECT_FALSE(off[r].feeder.has_value());
    ASSERT_TRUE(on[r].feeder.has_value());
    any_feeder_alert |= on[r].feeder->alert_count() > 0;
  }
  EXPECT_TRUE(any_feeder_alert)
      << "collusion never tripped the feeder layer; the differential "
         "would not exercise appended events";

  // The hierarchy-on log minus its feeder events is the hierarchy-off log,
  // byte for byte modulo the `seq` counter (feeder events consume sequence
  // numbers, renumbering every later event; nothing else may move).
  const auto strip_seq = [](std::string line) {
    const std::size_t at = line.find("\"seq\":");
    if (at == std::string::npos) return line;
    std::size_t end = at + 6;
    while (end < line.size() && line[end] != ',') ++end;
    line.erase(at, end - at + 1);
    return line;
  };
  const auto off_lines = log_off.lines();
  const auto on_lines = log_on.lines();
  ASSERT_GT(on_lines.size(), off_lines.size());
  std::vector<std::string> on_baseline;
  std::size_t feeder_lines = 0;
  for (const std::string& line : on_lines) {
    if (line.find("feeder_alert_raised") != std::string::npos ||
        line.find("collusion_suspected") != std::string::npos) {
      ++feeder_lines;
      continue;
    }
    on_baseline.push_back(strip_seq(line));
  }
  EXPECT_GT(feeder_lines, 0u);
  ASSERT_EQ(on_baseline.size(), off_lines.size())
      << "hierarchy-on run dropped or added baseline events";
  for (std::size_t i = 0; i < off_lines.size(); ++i) {
    EXPECT_EQ(on_baseline[i], strip_seq(off_lines[i])) << "line " << i;
  }
}

// ---------------------------------------------------------------------------
// Golden matrix: k siblings x technical-loss fraction, per-consumer kld vs
// feeder-level detection.

struct CollusionCell {
  std::size_t group_size = 0;
  int loss_pct = 0;
  /// Colluders the per-consumer kld flagged in the attacked run but NOT in
  /// the clean run of the same week - the flags attributable to the shave
  /// itself (steady-state noise false positives are the clean run's, not
  /// the attack's).
  std::size_t colluders_newly_flagged = 0;
  std::size_t feeder_alerts = 0;
  std::size_t collusion_groups = 0;
  std::size_t colluders_localized = 0;
};

std::string golden_path() {
  return std::string(FDETA_SOURCE_DIR) + "/tests/golden/collusion_matrix.csv";
}

std::string to_csv(const std::vector<CollusionCell>& cells) {
  std::ostringstream out;
  out << "group_size,loss_pct,colluders_newly_flagged,feeder_alerts,"
         "collusion_groups,colluders_localized\n";
  for (const CollusionCell& c : cells) {
    out << c.group_size << ',' << c.loss_pct << ','
        << c.colluders_newly_flagged << ',' << c.feeder_alerts << ','
        << c.collusion_groups << ',' << c.colluders_localized << '\n';
  }
  return out.str();
}

std::vector<CollusionCell> compute_matrix() {
  constexpr std::uint64_t kSeed = 11;
  std::vector<CollusionCell> cells;
  for (const int loss_pct : {0, 5, 15}) {
    const auto topology =
        make_topology(kSeed, static_cast<double>(loss_pct) / 100.0);
    const auto actual = datagen::small_dataset(kConsumers, kWeeks, kSeed);

    const auto evaluate = [&](const meter::Dataset& reported) {
      obs::MetricsRegistry metrics;
      core::PipelineConfig config;
      config.split = split();
      config.hierarchy = true;
      config.metrics = &metrics;
      core::FdetaPipeline pipeline(config);
      pipeline.fit(actual);
      const core::EvidenceCalendar calendar;
      return pipeline.evaluate_week(actual, reported, kAttackWeek, calendar,
                                    &topology);
    };
    const auto flagged_of = [](const core::PipelineReport& report) {
      std::vector<bool> flagged(report.verdicts.size(), false);
      for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
        const auto status = report.verdicts[i].status;
        flagged[i] = status != core::VerdictStatus::kNormal &&
                     status != core::VerdictStatus::kInsufficientData;
      }
      return flagged;
    };

    // Clean reference run: its per-consumer flags are steady-state noise
    // false positives; attacked runs count only colluders flagged BEYOND it.
    const auto clean_report = evaluate(actual);
    const std::vector<bool> clean_flagged = flagged_of(clean_report);

    for (const std::size_t k : {0u, 2u, 4u, 8u}) {
      CollusionCell cell;
      cell.group_size = k;
      cell.loss_pct = loss_pct;

      std::vector<std::size_t> colluders;
      meter::Dataset reported = actual;
      if (k > 0) {
        const auto scenario = attack::make_collusion_scenario(
            topology, actual, k, /*shave_fraction=*/0.03, kAttackWeek);
        colluders = scenario.consumers;
        reported = attack::apply_injections(actual, scenario.injections);
      }

      const auto report = evaluate(reported);
      const std::vector<bool> flagged = flagged_of(report);
      for (const std::size_t i : colluders) {
        if (flagged[i] && !clean_flagged[i]) ++cell.colluders_newly_flagged;
      }
      if (report.feeder.has_value()) {
        cell.feeder_alerts = report.feeder->alert_count();
        cell.collusion_groups = report.feeder->collusion.size();
        for (const auto& group : report.feeder->collusion) {
          for (const std::size_t i : group.consumers) {
            for (const std::size_t colluder : colluders) {
              if (i == colluder) ++cell.colluders_localized;
            }
          }
        }
      }
      cells.push_back(cell);
    }
  }
  return cells;
}

TEST(GoldenCollusion, MatrixMatchesGoldenFile) {
  const std::vector<CollusionCell> cells = compute_matrix();
  ASSERT_FALSE(cells.empty());

  // The acceptance properties behind the golden numbers, asserted directly
  // so a regeneration cannot silently bless a regression:
  for (const CollusionCell& c : cells) {
    SCOPED_TRACE(::testing::Message() << "k=" << c.group_size
                                      << " loss=" << c.loss_pct << '%');
    if (c.group_size == 0) {
      // Clean fleet: the feeder layer must stay silent at every loss level.
      EXPECT_EQ(c.feeder_alerts, 0u);
      EXPECT_EQ(c.collusion_groups, 0u);
    }
    if (c.group_size >= 4) {
      // The per-consumer layer is blind to the sub-threshold shave (no
      // colluder flags beyond the clean run's noise); the feeder layer
      // localizes at least one colluding group.
      EXPECT_EQ(c.colluders_newly_flagged, 0u);
      EXPECT_GE(c.collusion_groups, 1u);
      EXPECT_GT(c.colluders_localized, 0u);
    }
  }

  if (std::getenv("FDETA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << to_csv(cells);
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << "; run FDETA_REGEN_GOLDEN=1 ctest -R GoldenCollusion";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), to_csv(cells))
      << "collusion matrix moved; if intentional, regenerate with "
         "FDETA_REGEN_GOLDEN=1 ctest -R GoldenCollusion";
}

// ---------------------------------------------------------------------------
// Attack-scenario helper.

TEST(CollusionScenario, PicksDeepestEligibleNodeAndShavesUniformly) {
  const auto topology = make_topology(7);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 7);
  const auto scenario =
      attack::make_collusion_scenario(topology, actual, 4, 0.1, kAttackWeek);

  // Every node with >= 4 consumer descendants is at most as deep.
  const int depth = topology.depth(scenario.node);
  for (std::size_t id = 0; id < topology.node_count(); ++id) {
    const auto nid = static_cast<grid::NodeId>(id);
    if (topology.node(nid).kind != grid::NodeKind::kInternal) continue;
    if (topology.consumers_under(nid).size() < 4) continue;
    EXPECT_LE(topology.depth(nid), depth);
  }
  // Members are the node's first consumers, ascending, and each injection
  // is a uniform 10% shave of the attacked week.
  ASSERT_EQ(scenario.consumers.size(), 4u);
  ASSERT_EQ(scenario.injections.size(), 4u);
  for (std::size_t m = 0; m + 1 < scenario.consumers.size(); ++m) {
    EXPECT_LT(scenario.consumers[m], scenario.consumers[m + 1]);
  }
  for (const auto& injection : scenario.injections) {
    const auto clean =
        actual.consumer(injection.consumer_index).week(kAttackWeek);
    ASSERT_EQ(injection.reported_week.size(), clean.size());
    for (std::size_t t = 0; t < clean.size(); ++t) {
      EXPECT_DOUBLE_EQ(injection.reported_week[t], clean[t] * 0.9);
    }
  }
  EXPECT_THROW(
      attack::make_collusion_scenario(topology, actual, kConsumers + 1, 0.1,
                                      kAttackWeek),
      InvalidArgument);
  EXPECT_THROW(
      attack::make_collusion_scenario(topology, actual, 4, 1.5, kAttackWeek),
      InvalidArgument);
}

}  // namespace
}  // namespace fdeta
