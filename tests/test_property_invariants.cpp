// Cross-module property tests: the paper's structural invariants checked
// over randomised topologies, injections and tariffs, plus the generic
// detector-plugin contract every registered family must honour.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/propositions.h"
#include "common/rng.h"
#include "core/detector_fleet.h"
#include "core/detector_registry.h"
#include "datagen/generator.h"
#include "grid/balance.h"
#include "grid/investigate.h"
#include "persist/binary_io.h"
#include "pricing/billing.h"
#include "tests/attack_test_helpers.h"

namespace fdeta {
namespace {

struct RandomCase {
  grid::Topology topology{grid::Topology::single_feeder(1)};
  std::vector<Kw> actual;
  std::vector<Kw> reported;
};

RandomCase make_case(std::uint64_t seed) {
  Rng rng(seed);
  RandomCase c;
  const std::size_t consumers = 5 + rng.below(60);
  c.topology = grid::Topology::random_radial(consumers, 2 + rng.below(4), rng,
                                             0.01 * rng.uniform());
  c.actual.resize(consumers);
  for (auto& v : c.actual) v = 0.1 + 3.0 * rng.uniform();
  c.reported = c.actual;
  // Perturb a random subset of reports up or down.
  const std::size_t tampered = rng.below(consumers) + 1;
  for (std::size_t k = 0; k < tampered; ++k) {
    const std::size_t i = rng.below(consumers);
    c.reported[i] = std::max(0.0, c.reported[i] + rng.normal(0.0, 0.5));
  }
  return c;
}

class RandomGridSweep : public ::testing::TestWithParam<int> {};

// Section V-B: "If W is true for an internal node, it must be true for all
// its ancestors" (with trusted meters).
TEST_P(RandomGridSweep, FailurePropagatesToAncestors) {
  const auto c = make_case(static_cast<std::uint64_t>(GetParam()));
  const auto outcome = grid::run_balance_checks(c.topology, c.actual,
                                                c.reported, {}, 1e-9);
  for (const auto id : outcome.failing_nodes()) {
    for (grid::NodeId cur = c.topology.node(id).parent;
         cur != grid::kNoNode; cur = c.topology.node(cur).parent) {
      if (outcome.checked(cur)) {
        EXPECT_TRUE(outcome.failed(cur))
            << "ancestor " << cur << " of failing node " << id;
      }
    }
  }
}

// Honest reports never fail any check; consistent failures raise no V-B
// alarms when all meters are trusted.
TEST_P(RandomGridSweep, TrustedMetersRaiseNoAlarms) {
  const auto c = make_case(static_cast<std::uint64_t>(GetParam()) + 500);
  const auto outcome = grid::run_balance_checks(c.topology, c.actual,
                                                c.reported, {}, 1e-9);
  EXPECT_TRUE(grid::inconsistent_meter_alarms(c.topology, outcome).empty());
  const auto honest =
      grid::run_balance_checks(c.topology, c.actual, c.actual, {}, 1e-9);
  EXPECT_TRUE(honest.failing_nodes().empty());
}

// Case-2 investigation finds every divergent consumer while performing no
// more portable checks than there are internal nodes + 1.
TEST_P(RandomGridSweep, InvestigationIsSoundAndBounded) {
  const auto c = make_case(static_cast<std::uint64_t>(GetParam()) + 1000);
  const auto result =
      grid::investigate_case2(c.topology, c.actual, c.reported, 1e-9);
  std::size_t internal_nodes = 0;
  for (std::size_t id = 0; id < c.topology.node_count(); ++id) {
    if (c.topology.node(static_cast<grid::NodeId>(id)).kind ==
        grid::NodeKind::kInternal) {
      ++internal_nodes;
    }
  }
  EXPECT_LE(result.checks_performed, internal_nodes + 1);

  // Soundness: every suspect set contains all consumers whose parent's
  // subtree actually diverges... at minimum, the union of suspects must
  // cover every divergent consumer whose divergence is visible at its
  // parent (individual divergences here are all at one leaf each, so any
  // tampered consumer with |delta| > tolerance must be suspected).
  for (std::size_t i = 0; i < c.actual.size(); ++i) {
    if (std::abs(c.actual[i] - c.reported[i]) > 1e-6) {
      EXPECT_TRUE(std::find(result.suspects.begin(), result.suspects.end(),
                            i) != result.suspects.end())
          << "divergent consumer " << i << " not suspected";
    }
  }
}

// Proposition 1 as a biconditional sanity: under flat pricing, profit > 0
// iff total reported < total actual, and then an under-report slot exists.
TEST_P(RandomGridSweep, Proposition1OnRandomInjections) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const std::size_t slots = 10 + rng.below(300);
  std::vector<Kw> actual(slots), reported(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    actual[t] = rng.uniform(0.0, 3.0);
    reported[t] = std::max(0.0, actual[t] + rng.normal(0.0, 0.4));
  }
  const pricing::FlatRate flat(0.2);
  if (pricing::attack_condition_holds(actual, reported, flat)) {
    EXPECT_TRUE(attack::proposition1_witness(actual, reported).has_value());
  }
}

// Billing is linear: bill(a) + bill(b) == bill(a + b) under any tariff.
TEST_P(RandomGridSweep, BillingLinearity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  const std::size_t slots = 48;
  std::vector<Kw> a(slots), b(slots), sum(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    a[t] = rng.uniform(0.0, 2.0);
    b[t] = rng.uniform(0.0, 2.0);
    sum[t] = a[t] + b[t];
  }
  const auto tou = pricing::nightsaver();
  EXPECT_NEAR(pricing::bill(a, tou) + pricing::bill(b, tou),
              pricing::bill(sum, tou), 1e-9);
  EXPECT_NEAR(pricing::energy(a) + pricing::energy(b), pricing::energy(sum),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGridSweep, ::testing::Range(0, 15));

// ---------------------------------------------------------------------------
// Detector plugin contract: the promises detector_fleet.h makes, checked
// against every family the registry can build.  A new detector that
// registers itself is automatically held to the same bar.

class DetectorContract : public ::testing::TestWithParam<std::string_view> {
 protected:
  /// A one-member fleet of the family, fitted on `training`.
  core::DetectorFleet fitted(std::span<const Kw> training) const {
    core::DetectorFleet fleet(std::string(GetParam()), {}, 1,
                              core::training_weeks(training));
    fleet.fit(0, training);
    return fleet;
  }

  /// The fleet's checkpoint block.
  static std::string block(const core::DetectorFleet& fleet) {
    persist::Encoder enc;
    fleet.save(enc);
    return enc.bytes();
  }
};

// Two independently built + fitted instances of the same family agree on
// everything observable: stored bytes, threshold, and scores (the registry
// seeds any internal randomness deterministically).
TEST_P(DetectorContract, FitAndScoreAreDeterministic) {
  const auto f = testutil::make_fixture(4242);
  const core::DetectorFleet a = fitted(f.train());
  const core::DetectorFleet b = fitted(f.train());
  EXPECT_EQ(block(a), block(b));
  EXPECT_EQ(a.decision_threshold(), b.decision_threshold());
  EXPECT_EQ(a.raw_decision_threshold(0), b.raw_decision_threshold(0));
  for (std::size_t w = 0; w < 4; ++w) {
    const auto week = f.split.test_week(f.series, w);
    const SlotIndex first = (12 + w) * static_cast<std::size_t>(kSlotsPerWeek);
    EXPECT_EQ(a.score_week(0, week, first), b.score_week(0, week, first))
        << "test week " << w;
  }
}

// Scoring entry points are pure: repeated and interleaved const calls return
// identical values and leave the serialized state byte-identical (no hidden
// state mutation on the hot path).
TEST_P(DetectorContract, ScoringIsPure) {
  const auto f = testutil::make_fixture(999);
  const core::DetectorFleet fleet = fitted(f.train());
  const std::string before = block(fleet);
  const auto week = f.clean_week();
  const double first = fleet.score_week(0, week, 0);
  const auto explanation = fleet.explain_week(0, week, 0);
  const bool flagged =
      fleet.raw_score_week(0, week, 0) > fleet.raw_decision_threshold(0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet.score_week(0, week, 0), first) << "call " << i;
  }
  EXPECT_EQ(explanation.score, first);
  EXPECT_EQ(explanation.threshold, fleet.decision_threshold());
  EXPECT_EQ(flagged, first > fleet.decision_threshold());
  EXPECT_EQ(block(fleet), before)
      << "scoring mutated serialized detector state";
}

// Degenerate baselines must not produce NaN/inf scores: a consumer whose
// whole training span is a constant (vacant premises report flat zeros) still
// gets finite verdicts for constant, positive, and spiky weeks.
TEST_P(DetectorContract, FiniteScoresOnDegenerateBaseline) {
  const std::vector<Kw> train(12 * static_cast<std::size_t>(kSlotsPerWeek),
                              0.0);
  const core::DetectorFleet d = fitted(train);
  EXPECT_TRUE(std::isfinite(d.decision_threshold()));

  std::vector<Kw> week(kSlotsPerWeek, 0.0);
  EXPECT_TRUE(std::isfinite(d.score_week(0, week, 0))) << "constant week";
  std::fill(week.begin(), week.end(), 1.5);
  EXPECT_TRUE(std::isfinite(d.score_week(0, week, 0))) << "positive week";
  week.assign(kSlotsPerWeek, 0.0);
  week[100] = 40.0;
  EXPECT_TRUE(std::isfinite(d.score_week(0, week, 0))) << "spiky week";
}

// save -> restore -> save is byte-stable and the restored detector scores
// bit-exactly like the original (the checkpoint layer depends on both).
TEST_P(DetectorContract, SaveRestoreSaveIsByteStable) {
  const auto f = testutil::make_fixture(31337);
  const core::DetectorFleet original = fitted(f.train());
  const std::string bytes = block(original);

  persist::Decoder dec(bytes);
  const core::DetectorFleet restored = core::DetectorFleet::restore(dec, 0);
  dec.require_exhausted("detector contract block");

  EXPECT_EQ(block(restored), bytes) << "save/restore/save not stable";
  EXPECT_EQ(restored.decision_threshold(), original.decision_threshold());
  const auto week = f.clean_week();
  EXPECT_EQ(restored.score_week(0, week, 0), original.score_week(0, week, 0));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compares member i of `fleet` with the one-member fleet `solo` on `week`:
/// every score and explanation bit, and the raw threshold.
::testing::AssertionResult scores_like(const core::DetectorFleet& fleet,
                                       std::size_t i,
                                       const core::DetectorFleet& solo,
                                       std::span<const Kw> week,
                                       SlotIndex first_slot) {
  std::vector<std::uint16_t> a(fleet.count_words());
  std::vector<std::uint16_t> b(solo.count_words());
  fleet.count_week(i, week, first_slot, a);
  solo.count_week(0, week, first_slot, b);
  const core::KldExplanation ea = fleet.explain_week(i, week, first_slot);
  const core::KldExplanation eb = solo.explain_week(0, week, first_slot);
  bool same = a == b && ea.bins.size() == eb.bins.size() &&
              same_bits(fleet.score_week(i, week, first_slot),
                        solo.score_week(0, week, first_slot)) &&
              same_bits(fleet.raw_score_week(i, week, first_slot),
                        solo.raw_score_week(0, week, first_slot)) &&
              same_bits(fleet.score_counts(i, a), solo.score_counts(0, b)) &&
              same_bits(fleet.raw_decision_threshold(i),
                        solo.raw_decision_threshold(0)) &&
              same_bits(ea.score, eb.score) &&
              same_bits(ea.raw_score, eb.raw_score) &&
              same_bits(ea.raw_threshold, eb.raw_threshold);
  for (std::size_t j = 0; same && j < ea.bins.size(); ++j) {
    same = same_bits(ea.bins[j].bits, eb.bins[j].bits) &&
           same_bits(ea.bins[j].lower, eb.bins[j].lower) &&
           same_bits(ea.bins[j].q, eb.bins[j].q);
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "member " << i << " scores " << fleet.raw_score_week(i, week,
                                                                 first_slot)
         << ", its solo fleet " << solo.raw_score_week(0, week, first_slot);
}

// Every member of a multi-member fleet reads its own rows: member i scores,
// counts and explains bit-identically to a one-member fleet fitted on the
// same consumer, before and after a save -> restore of the whole fleet.  A
// wrong row offset for i > 0 (G > 1 groups for ckld, k positions for
// kld-lite) shows here and nowhere else.
TEST_P(DetectorContract, EveryMemberScoresLikeASoloFleet) {
  constexpr std::size_t kMembers = 5;
  const auto dataset = datagen::small_dataset(kMembers, 16, 7);
  const meter::TrainTestSplit split{.train_weeks = 12, .test_weeks = 4};
  core::DetectorFleet fleet(std::string(GetParam()), {}, kMembers,
                            split.train_weeks);
  std::vector<core::DetectorFleet> solos;
  for (std::size_t i = 0; i < kMembers; ++i) {
    fleet.fit(i, split.train(dataset.consumer(i)));
    solos.push_back(fitted(split.train(dataset.consumer(i))));
  }
  const std::string bytes = block(fleet);
  persist::Decoder dec(bytes);
  const core::DetectorFleet restored = core::DetectorFleet::restore(dec, 0);
  dec.require_exhausted("five-member fleet block");

  for (const core::DetectorFleet* f :
       std::vector<const core::DetectorFleet*>{&fleet, &restored}) {
    SCOPED_TRACE(f == &fleet ? "fitted" : "restored");
    for (std::size_t i = 0; i < kMembers; ++i) {
      for (std::size_t w = 0; w < split.test_weeks; ++w) {
        const SlotIndex first = (split.train_weeks + w) *
                                static_cast<std::size_t>(kSlotsPerWeek);
        EXPECT_TRUE(scores_like(*f, i, solos[i],
                                split.test_week(dataset.consumer(i), w),
                                first))
            << "test week " << w;
      }
    }
  }
}

std::string contract_name(
    const ::testing::TestParamInfo<std::string_view>& info) {
  std::string name(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, DetectorContract,
                         ::testing::ValuesIn(core::registered_detector_names()),
                         contract_name);

}  // namespace
}  // namespace fdeta
