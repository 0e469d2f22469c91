// Feeder-level hierarchical verification (DESIGN.md §14), pinned by
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
//   - checkpoint round-trips are byte-stable, and a restore is checked
//     against the topology it lands on;
//   - a report does not depend on how the consumers are numbered (the
//     aggregates are exact integer sums), and a reading those sums cannot
//     hold is rejected before any state moves.
//
// The GoldenCollusion test pins the k-siblings x loss-fraction detection
// matrix (per-consumer kld vs feeder-level, balance mode) to tests/golden/
// collusion_matrix.csv, and GoldenStreamingFeeder the monitor's weekly
// streaming-mode reports to tests/golden/streaming_feeder.txt.  Regenerate
// after an intentional change with
//   FDETA_REGEN_GOLDEN=1 ctest -R 'GoldenCollusion|GoldenStreamingFeeder'
// and commit the updated file alongside the change that moved it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "attack/collusion.h"
#include "attack/injector.h"
#include "common/error.h"
#include "core/online_monitor.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "grid/hierarchy/feeder_monitor.h"
#include "grid/hierarchy/residuals.h"
#include "grid/topology.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "persist/binary_io.h"
#include "stats/descriptive.h"

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

// Each consumer's mean over `week`: the trusted demand balance mode reads.
std::vector<double> week_means(const meter::Dataset& data, std::size_t week) {
  std::vector<double> means(data.consumer_count());
  for (std::size_t i = 0; i < means.size(); ++i) {
    means[i] = stats::mean(data.consumer(i).week(week));
  }
  return means;
}

// Each consumer's training-span mean: the consumer model's summary that the
// feeder layer's collusion test reads (ConsumerModel::train_means).
std::vector<double> train_means(const meter::Dataset& data,
                                const meter::TrainTestSplit& s = split()) {
  std::vector<double> means(data.consumer_count());
  for (std::size_t i = 0; i < means.size(); ++i) {
    means[i] = stats::mean(s.train(data.consumer(i)));
  }
  return means;
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
      const auto report = monitor.evaluate_week(week_means(actual, w), actual,
                                                w, train_means(actual));
      EXPECT_EQ(report.alert_count(), 0u) << "week " << w;
      EXPECT_TRUE(report.collusion.empty()) << "week " << w;
    }
  }
}

TEST(FeederMonitor, ScoresAreCalibratedLikeConsumerScores) {
  const auto topology = make_topology(9);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 9);
  obs::MetricsRegistry metrics;
  hierarchy::FeederMonitor monitor(topology, quiet_config(&metrics));
  monitor.fit(actual, split());
  const auto report = monitor.evaluate_week(
      week_means(actual, kTrainWeeks), actual, kTrainWeeks,
      train_means(actual));
  ASSERT_FALSE(report.nodes.empty());
  for (const auto& node : report.nodes) {
    EXPECT_GE(node.score, 0.0) << "node " << node.node;
    EXPECT_LE(node.score, 1.0) << "node " << node.node;
    EXPECT_DOUBLE_EQ(node.threshold,
                     1.0 - core::DetectorOptions{}.kld.significance)
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
    const auto report = monitor.evaluate_week(
        week_means(actual, kAttackWeek), reported, kAttackWeek,
        train_means(actual));

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
  streaming.fit(
      kConsumers,
      [&](std::size_t i, meter::ConsumerSeries& scratch)
          -> const meter::ConsumerSeries& {
        return scratch = actual.consumer(i);  // a copy, as a source makes
      },
      split());

  persist::Encoder a, b;
  batch.save_state(a);
  streaming.save_state(b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

// Integer sums make a node's aggregate independent of the order its
// consumers are numbered in: the same tree with its consumers attached in a
// permuted order, over the matching permuted data, scores every node to the
// same bits and localizes the same groups.
TEST(FeederMonitor, ReportIgnoresConsumerNumbering) {
  constexpr std::uint64_t kSeed = 11;
  const auto topology = make_topology(kSeed);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, kSeed);
  const auto scenario = attack::make_collusion_scenario(
      topology, actual, 4, /*shave_fraction=*/0.03, kAttackWeek);
  const auto reported = attack::apply_injections(actual, scenario.injections);

  // random_radial adds every internal and loss node before the consumers,
  // so re-attaching the consumers last keeps every other node's id.
  std::vector<std::size_t> perm(kConsumers);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(kSeed);
  std::shuffle(perm.begin(), perm.end(), rng);
  grid::Topology permuted;
  for (std::size_t id = 1; id < topology.node_count(); ++id) {
    const grid::Node& node = topology.node(static_cast<grid::NodeId>(id));
    if (node.kind == grid::NodeKind::kInternal) {
      permuted.add_internal(node.parent, node.has_balance_meter);
    } else if (node.kind == grid::NodeKind::kLoss) {
      permuted.add_loss(node.parent, node.loss_fraction);
    }
  }
  const auto permute = [&](const meter::Dataset& data) {
    std::vector<meter::ConsumerSeries> series;
    for (const std::size_t i : perm) series.push_back(data.consumer(i));
    return meter::Dataset(std::move(series));
  };
  for (const std::size_t i : perm) {
    const grid::Node& leaf = topology.node(topology.consumer_leaf(i));
    permuted.add_consumer(leaf.parent, leaf.consumer_id);
  }
  const auto permuted_actual = permute(actual);
  const auto permuted_reported = permute(reported);

  obs::MetricsRegistry metrics;
  hierarchy::FeederMonitor a(topology, quiet_config(&metrics));
  hierarchy::FeederMonitor b(permuted, quiet_config(&metrics));
  a.fit(actual, split());
  b.fit(permuted_actual, split());
  const auto a_means = train_means(actual);
  const auto b_means = train_means(permuted_actual);
  std::size_t alerts = 0;
  for (std::size_t w = kTrainWeeks; w < kWeeks; ++w) {
    SCOPED_TRACE(::testing::Message() << "week " << w);
    const SlotIndex slot =
        (w + 1) * static_cast<std::size_t>(kSlotsPerWeek) - 1;
    // Each consumer-week is read once per call, whatever its depth.
    std::atomic<std::size_t> reads{0};
    const auto want = a.evaluate_windows(
        [&](std::size_t i) {
          reads.fetch_add(1, std::memory_order_relaxed);
          return reported.consumer(i).week(w);
        },
        a_means, slot);
    EXPECT_EQ(reads.load(), kConsumers);
    const auto got = b.evaluate_windows(
        [&](std::size_t i) { return permuted_reported.consumer(i).week(w); },
        b_means, slot);
    ASSERT_EQ(want.nodes.size(), got.nodes.size());
    for (std::size_t n = 0; n < want.nodes.size(); ++n) {
      SCOPED_TRACE(::testing::Message() << "node " << want.nodes[n].node);
      EXPECT_EQ(want.nodes[n].node, got.nodes[n].node);
      EXPECT_EQ(want.nodes[n].score, got.nodes[n].score);
      EXPECT_EQ(want.nodes[n].residual_kw, got.nodes[n].residual_kw);
      EXPECT_EQ(want.nodes[n].residual_gate_kw,
                got.nodes[n].residual_gate_kw);
      EXPECT_EQ(want.nodes[n].flagged, got.nodes[n].flagged);
    }
    alerts += want.alert_count();
    ASSERT_EQ(want.collusion.size(), got.collusion.size());
    for (std::size_t g = 0; g < want.collusion.size(); ++g) {
      std::vector<std::size_t> members;
      for (const std::size_t j : got.collusion[g].consumers) {
        members.push_back(perm[j]);
      }
      std::sort(members.begin(), members.end());
      EXPECT_EQ(want.collusion[g].node, got.collusion[g].node);
      EXPECT_EQ(want.collusion[g].consumers, members);
    }
  }
  EXPECT_GT(alerts, 0u) << "no node alerted; the flags compared are vacuous";
}

// A reading the integer sums cannot hold (not finite, or beyond
// kMaxPlausibleKw) is rejected with DataError from the training data, a
// reported week and a streaming window alike, and a rejected call moves no
// state: a clean evaluation afterwards matches a monitor that never saw one.
TEST(FeederMonitor, ImplausibleReadingIsRejected) {
  const auto topology = make_topology(29);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 29);
  const auto means = week_means(actual, kAttackWeek);
  const auto trained = train_means(actual);
  const auto window_of = [](const meter::Dataset& data) {
    return [&data](std::size_t i) {
      return data.consumer(i).week(kAttackWeek);
    };
  };
  const SlotIndex slot =
      (kAttackWeek + 1) * static_cast<std::size_t>(kSlotsPerWeek) - 1;
  obs::MetricsRegistry metrics;
  hierarchy::FeederMonitor reference(topology, quiet_config(&metrics));
  hierarchy::FeederMonitor monitor(topology, quiet_config(&metrics));
  reference.fit(actual, split());
  monitor.fit(actual, split());

  constexpr std::size_t kConsumer = 7;
  const auto expect_rejected = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "accepted";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("consumer 7 "), std::string::npos)
          << e.what();
    }
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 2.0e6}) {
    SCOPED_TRACE(::testing::Message() << "reading " << bad);
    meter::Dataset poisoned_train = actual;
    poisoned_train.consumer(kConsumer).readings[3] = bad;
    hierarchy::FeederMonitor fresh(topology, quiet_config(&metrics));
    expect_rejected([&] { fresh.fit(poisoned_train, split()); });
    EXPECT_FALSE(fresh.fitted());
    expect_rejected([&] { monitor.fit(poisoned_train, split()); });

    meter::Dataset poisoned_week = actual;
    poisoned_week.consumer(kConsumer)
        .readings[kAttackWeek * static_cast<std::size_t>(kSlotsPerWeek) + 5] =
        bad;
    expect_rejected([&] {
      monitor.evaluate_week(means, poisoned_week, kAttackWeek, trained);
    });
    expect_rejected([&] {
      monitor.evaluate_windows(window_of(poisoned_week), trained, slot);
    });
  }

  // A window of the wrong length is refused, not read or written past.
  EXPECT_THROW(monitor.evaluate_windows(
                   [&](std::size_t i) {
                     return actual.consumer(i).weeks(kAttackWeek, 2);
                   },
                   trained, slot),
               InvalidArgument);

  persist::Encoder want_state, got_state;
  reference.save_state(want_state);
  monitor.save_state(got_state);
  EXPECT_EQ(want_state.bytes(), got_state.bytes());
  EXPECT_EQ(hierarchy::to_text(
                reference.evaluate_week(means, actual, kAttackWeek, trained)),
            hierarchy::to_text(
                monitor.evaluate_week(means, actual, kAttackWeek, trained)));
  EXPECT_EQ(hierarchy::to_text(
                reference.evaluate_windows(window_of(actual), trained, slot)),
            hierarchy::to_text(
                monitor.evaluate_windows(window_of(actual), trained, slot)));
}

// The post-order pass cuts the tree into chunks by pool width (one chunk
// root per subtree of at most consumers / (8 x width) consumers), so the
// layouts below sum through different chunk roots and serial passes.
// Integer sums make every chunking give the same bits.  The tree is
// unbalanced: a spine of 2,000 internal nodes, each with one consumer leaf,
// and a random radial subtree hung off the middle of it.
TEST(FeederMonitor, ChunkingDoesNotMoveABit) {
  constexpr std::size_t kSpine = 2000;
  constexpr std::size_t kHang = kSpine / 2;
  constexpr std::size_t kSub = 200;
  constexpr std::size_t kTrain = 4;
  constexpr std::size_t kTest = 2;
  const meter::TrainTestSplit short_split{.train_weeks = kTrain,
                                          .test_weeks = kTest};
  grid::Topology topology;
  std::vector<grid::NodeId> spine;
  meter::ConsumerId next_id = 1000;
  for (grid::NodeId up = topology.root(); spine.size() < kSpine;) {
    up = topology.add_internal(up);
    topology.add_consumer(up, next_id++);
    spine.push_back(up);
  }
  Rng rng(31);
  const auto sub = grid::Topology::random_radial(kSub, 4, rng);
  std::vector<grid::NodeId> graft(sub.node_count());
  graft[0] = spine[kHang];
  for (std::size_t id = 1; id < sub.node_count(); ++id) {
    const grid::Node& node = sub.node(static_cast<grid::NodeId>(id));
    const grid::NodeId parent = graft[static_cast<std::size_t>(node.parent)];
    if (node.kind == grid::NodeKind::kInternal) {
      graft[id] = topology.add_internal(parent, node.has_balance_meter);
    } else if (node.kind == grid::NodeKind::kLoss) {
      graft[id] = topology.add_loss(parent, node.loss_fraction);
    } else {
      graft[id] = topology.add_consumer(parent, next_id++);
    }
  }
  const std::size_t consumers = topology.consumer_count();
  ASSERT_EQ(consumers, kSpine + kSub);
  const auto actual =
      datagen::small_dataset(consumers, kTrain + kTest, /*seed=*/31);
  const auto means = week_means(actual, kTrain);
  const auto trained = train_means(actual, short_split);
  const SlotIndex slot =
      (kTrain + 1) * static_cast<std::size_t>(kSlotsPerWeek) - 1;

  struct Run {
    std::string fitted;               // save_state after fit
    hierarchy::FeederReport balance;  // evaluate_week
    std::string streaming;            // to_text of evaluate_windows
    std::string evaluated;            // save_state after both
  };
  const auto run = [&](std::size_t threads) {
    obs::MetricsRegistry metrics;
    hierarchy::FeederConfig config = quiet_config(&metrics);
    config.threads = threads;
    hierarchy::FeederMonitor monitor(topology, config);
    Run out;
    monitor.fit(actual, short_split);
    persist::Encoder fitted;
    monitor.save_state(fitted);
    out.fitted = fitted.bytes();
    out.balance = monitor.evaluate_week(means, actual, kTrain, trained);
    out.streaming = hierarchy::to_text(monitor.evaluate_windows(
        [&](std::size_t i) { return actual.consumer(i).week(kTrain); },
        trained, slot));
    persist::Encoder evaluated;
    monitor.save_state(evaluated);
    out.evaluated = evaluated.bytes();
    return out;
  };
  const Run serial = run(1);
  // Every spine node but the last holds its own consumer and everything
  // below it, the grafted subtree included above the hang point.
  std::size_t checked = 0;
  for (const hierarchy::FeederNodeScore& s : serial.balance.nodes) {
    const auto at = std::find(spine.begin(), spine.end(), s.node);
    if (at == spine.end()) continue;
    const auto k = static_cast<std::size_t>(at - spine.begin());
    EXPECT_EQ(s.consumers, kSpine - k + (k <= kHang ? kSub : 0))
        << "spine node " << k;
    ++checked;
  }
  EXPECT_EQ(checked, kSpine - 1);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const Run got = run(threads);
    EXPECT_EQ(serial.fitted, got.fitted);
    EXPECT_EQ(hierarchy::to_text(serial.balance),
              hierarchy::to_text(got.balance));
    EXPECT_EQ(serial.streaming, got.streaming);
    EXPECT_EQ(serial.evaluated, got.evaluated);
  }
}

// Constructing a monitor on a 100,000-node chain over 3 consumers (every
// chain node is scored) and picking its collusion node are O(nodes).  The
// per-node subtree and depth walks they replaced were quadratic here, minutes
// of work; ctest runs this under a 30 s TIMEOUT.  Nothing is fitted: that
// would be 100,000 node fits.
TEST(FeederMonitor, ChainResolvesInLinearTime) {
  constexpr std::size_t kChain = 100000;
  grid::Topology topology;
  grid::NodeId bottom = topology.root();
  for (std::size_t d = 0; d < kChain; ++d) {
    bottom = topology.add_internal(bottom);
  }
  for (meter::ConsumerId id = 1000; id < 1003; ++id) {
    topology.add_consumer(bottom, id);
  }
  obs::MetricsRegistry metrics;
  const hierarchy::FeederMonitor monitor(topology, quiet_config(&metrics));
  EXPECT_EQ(monitor.scored_node_count(), kChain + 1);

  const auto actual = datagen::small_dataset(3, 2, /*seed=*/5);
  const auto scenario =
      attack::make_collusion_scenario(topology, actual, 2, 0.05, 1);
  EXPECT_EQ(scenario.node, bottom);
  EXPECT_EQ(scenario.consumers, (std::vector<std::size_t>{0, 1}));
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
  const auto means = week_means(actual, kAttackWeek);
  const auto trained = train_means(actual);
  const auto want =
      monitor.evaluate_week(means, reported, kAttackWeek, trained);
  const auto got =
      restored.evaluate_week(means, reported, kAttackWeek, trained);
  EXPECT_EQ(hierarchy::to_text(want), hierarchy::to_text(got));
  // ...and the re-saved state matches byte for byte (both monitors advanced
  // their baselines through the same week).
  persist::Encoder again_a, again_b;
  monitor.save_state(again_a);
  restored.save_state(again_b);
  EXPECT_EQ(again_a.bytes(), again_b.bytes());
}

// The checkpoint block is checked against the tree it is restored on: the
// scored-node set, the consumer count, and that a tree exists at all.
TEST(FeederMonitor, RestoreRejectsAnotherTopology) {
  const auto topology = make_topology(19);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 19);
  obs::MetricsRegistry metrics;
  hierarchy::FeederMonitor monitor(topology, quiet_config(&metrics));
  monitor.fit(actual, split());
  persist::Encoder enc;
  monitor.save_state(enc);

  {
    SCOPED_TRACE("another tree over the same consumers");
    const auto other = make_topology(23);
    hierarchy::FeederMonitor target(other, quiet_config(&metrics));
    persist::Decoder dec(enc.bytes());
    EXPECT_THROW(target.restore_state(dec), DataError);
  }
  {
    SCOPED_TRACE("the same scored nodes over one more consumer");
    // Two feeders under the root, consumers dealt alternately: node ids 0-2
    // are scored whatever the consumer count.
    const auto two_feeders = [](std::size_t consumers) {
      grid::Topology t;
      const grid::NodeId a = t.add_internal(t.root());
      const grid::NodeId b = t.add_internal(t.root());
      for (std::size_t i = 0; i < consumers; ++i) {
        t.add_consumer(i % 2 == 0 ? a : b, static_cast<meter::ConsumerId>(i));
      }
      return t;
    };
    const auto four = two_feeders(4);
    const auto five = two_feeders(5);
    hierarchy::FeederMonitor fitted(four, quiet_config(&metrics));
    fitted.fit(datagen::small_dataset(4, kWeeks, 19), split());
    persist::Encoder block;
    fitted.save_state(block);
    hierarchy::FeederMonitor target(five, quiet_config(&metrics));
    ASSERT_EQ(target.scored_node_count(), fitted.scored_node_count());
    persist::Decoder dec(block.bytes());
    EXPECT_THROW(target.restore_state(dec), DataError);
  }
  {
    SCOPED_TRACE("a monitor with no topology");
    obs::EventLog events;
    core::OnlineMonitorConfig config;
    config.metrics = &metrics;
    config.events = &events;
    config.topology = &topology;
    core::OnlineMonitor source(config);
    source.fit(actual, split());
    std::ostringstream out(std::ios::binary);
    source.save(out);
    config.topology = nullptr;
    core::OnlineMonitor target(config);
    std::istringstream in(out.str(), std::ios::binary);
    EXPECT_THROW(target.restore(in), DataError);
  }
}

// The monitor keeps a reading it cannot trust out of its windows: a NaN,
// +inf or 2e6 kW reading ingested directly (the head-end would have
// quarantined it) is counted under monitor.readings_implausible and treated
// as missing, so the next feeder report is clean, the same as a monitor
// that was told the slot was missing, instead of a DataError.
TEST(OnlineMonitorFeeder, ImplausibleReadingIsCountedNotStored) {
  const auto topology = make_topology(29);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, 29);
  constexpr std::size_t kConsumer = 5;
  const SlotIndex first = kTrainWeeks * static_cast<std::size_t>(kSlotsPerWeek);
  const SlotIndex end = first + static_cast<std::size_t>(kSlotsPerWeek);
  const SlotIndex bad_slot = first + 100;

  struct Run {
    std::string report;
    std::string state;
    obs::MetricsSnapshot counters;
  };
  const auto run = [&](const core::Reading& replacement) {
    obs::MetricsRegistry metrics;
    obs::EventLog events;
    core::OnlineMonitorConfig config;
    config.metrics = &metrics;
    config.events = &events;
    config.topology = &topology;
    core::OnlineMonitor monitor(config);
    monitor.fit(actual, split());
    std::vector<core::Reading> batch;
    for (SlotIndex t = first; t < end; ++t) {
      for (std::size_t c = 0; c < kConsumers; ++c) {
        batch.push_back({c, t, actual.consumer(c).readings[t]});
        if (c == kConsumer && t == bad_slot) batch.back() = replacement;
      }
    }
    monitor.ingest_batch(batch);
    Run out;
    out.report = hierarchy::to_text(monitor.evaluate_feeders(end - 1));
    std::ostringstream state(std::ios::binary);
    monitor.save(state);
    out.state = state.str();
    out.counters = metrics.snapshot();
    return out;
  };
  const Run missing = run({kConsumer, bad_slot, 0.0, /*missing=*/true});
  EXPECT_EQ(missing.counters.counter("monitor.readings_implausible"), 0u);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 2.0e6}) {
    SCOPED_TRACE(::testing::Message() << "reading " << bad);
    const Run got = run({kConsumer, bad_slot, bad});
    EXPECT_EQ(got.report, missing.report);
    EXPECT_EQ(got.state, missing.state);
    EXPECT_EQ(got.counters.counter("monitor.readings_implausible"), 1u);
    EXPECT_EQ(got.counters.counter("monitor.readings_missing"),
              missing.counters.counter("monitor.readings_missing") - 1);
    EXPECT_EQ(got.counters.counter("monitor.readings_ingested"),
              missing.counters.counter("monitor.readings_ingested"));
  }
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
// Golden streaming-mode reports: OnlineMonitor::evaluate_feeders has no
// ground truth, so its numbers (the residual sigma / floor gate, the EWMA
// baseline, the training-mean collusion test) are pinned here, one to_text
// report per test week, to tests/golden/streaming_feeder.txt.  Regenerate
// after an intentional change with
//   FDETA_REGEN_GOLDEN=1 ctest -R GoldenStreamingFeeder

std::string streaming_golden_path() {
  return std::string(FDETA_SOURCE_DIR) + "/tests/golden/streaming_feeder.txt";
}

TEST(GoldenStreamingFeeder, WeeklyReportsMatchGoldenFile) {
  constexpr std::uint64_t kSeed = 11;
  const auto topology = make_topology(kSeed);
  const auto actual = datagen::small_dataset(kConsumers, kWeeks, kSeed);
  const auto scenario = attack::make_collusion_scenario(
      topology, actual, 4, /*shave_fraction=*/0.03, kAttackWeek);
  const auto reported = attack::apply_injections(actual, scenario.injections);

  obs::MetricsRegistry metrics;
  obs::EventLog events;  // disabled: the reports are the artifact
  core::OnlineMonitorConfig config;
  config.metrics = &metrics;
  config.events = &events;
  config.topology = &topology;
  core::OnlineMonitor monitor(config);
  monitor.fit(actual, split());

  // One slot-major batch per test week, scored on the week's last slot.
  std::string text;
  std::vector<std::size_t> alerts;
  std::size_t groups = 0;
  std::vector<core::Reading> batch;
  for (std::size_t w = kTrainWeeks; w < kWeeks; ++w) {
    const SlotIndex first = w * static_cast<std::size_t>(kSlotsPerWeek);
    const SlotIndex end = first + static_cast<std::size_t>(kSlotsPerWeek);
    batch.clear();
    for (SlotIndex t = first; t < end; ++t) {
      for (std::size_t c = 0; c < kConsumers; ++c) {
        batch.push_back({c, t, reported.consumer(c).readings[t]});
      }
    }
    monitor.ingest_batch(batch);
    const hierarchy::FeederReport report = monitor.evaluate_feeders(end - 1);
    alerts.push_back(report.alert_count());
    groups += report.collusion.size();
    text += hierarchy::to_text(report);
  }

  // A regeneration must not bless a silent or a stuck layer: some week
  // alerts and localizes a group, and a later week is silent again.
  std::size_t total_alerts = 0;
  bool silent_after_alert = false;
  for (std::size_t w = 0; w < alerts.size(); ++w) {
    total_alerts += alerts[w];
    if (w > 0 && alerts[w] == 0 && alerts[w - 1] > 0) {
      silent_after_alert = true;
    }
  }
  EXPECT_GT(total_alerts, 0u);
  EXPECT_GT(groups, 0u);
  EXPECT_TRUE(silent_after_alert);

  if (std::getenv("FDETA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(streaming_golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << streaming_golden_path();
    out << text;
    GTEST_SKIP() << "regenerated " << streaming_golden_path();
  }

  std::ifstream in(streaming_golden_path());
  ASSERT_TRUE(in.good())
      << "missing golden file " << streaming_golden_path()
      << "; run FDETA_REGEN_GOLDEN=1 ctest -R GoldenStreamingFeeder";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), text)
      << "streaming feeder reports moved; if intentional, regenerate with "
         "FDETA_REGEN_GOLDEN=1 ctest -R GoldenStreamingFeeder";
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
