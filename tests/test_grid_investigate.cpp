#include "grid/investigate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace fdeta::grid {
namespace {

/// Three-level tree: root -> {a, b}, a -> {c0, c1}, b -> {c2, c3}.
Topology three_level() {
  Topology t;
  const NodeId a = t.add_internal(t.root());
  const NodeId b = t.add_internal(t.root());
  t.add_consumer(a, 1000);
  t.add_consumer(a, 1001);
  t.add_consumer(b, 1002);
  t.add_consumer(b, 1003);
  return t;
}

TEST(InvestigateCase1, LocalisesDeepestFailingNode) {
  const auto t = three_level();
  const std::vector<Kw> actual{1.0, 2.0, 3.0, 4.0};
  std::vector<Kw> reported = actual;
  reported[2] = 1.0;  // theft under node b
  const auto outcome = run_balance_checks(t, actual, reported);
  const auto result = investigate_case1(t, outcome);

  const NodeId b = t.node(t.consumer_leaf(2)).parent;
  EXPECT_EQ(result.localized_node, b);
  ASSERT_EQ(result.suspects.size(), 2u);
  EXPECT_TRUE(std::find(result.suspects.begin(), result.suspects.end(), 2u) !=
              result.suspects.end());
}

TEST(InvestigateCase1, NothingToFindOnHonestData) {
  const auto t = three_level();
  const std::vector<Kw> actual{1.0, 2.0, 3.0, 4.0};
  const auto outcome = run_balance_checks(t, actual, actual);
  const auto result = investigate_case1(t, outcome);
  EXPECT_EQ(result.localized_node, kNoNode);
  EXPECT_TRUE(result.suspects.empty());
}

TEST(InvestigateCase2, FindsAttackerWithPortableMeter) {
  const auto t = three_level();
  const std::vector<Kw> actual{1.0, 2.0, 3.0, 4.0};
  std::vector<Kw> reported = actual;
  reported[1] = 0.1;
  const auto result = investigate_case2(t, actual, reported);
  ASSERT_FALSE(result.suspects.empty());
  EXPECT_TRUE(std::find(result.suspects.begin(), result.suspects.end(), 1u) !=
              result.suspects.end());
  // Only the left branch's consumers are suspected.
  EXPECT_TRUE(std::find(result.suspects.begin(), result.suspects.end(), 2u) ==
              result.suspects.end());
}

TEST(InvestigateCase2, HonestDataCostsOneCheck) {
  const auto t = three_level();
  const std::vector<Kw> actual{1.0, 2.0, 3.0, 4.0};
  const auto result = investigate_case2(t, actual, actual);
  EXPECT_EQ(result.checks_performed, 1u);
  EXPECT_TRUE(result.suspects.empty());
}

TEST(InvestigateCase2, PrunesUntouchedSubtrees) {
  // Large random tree, one thief: the BFS must check far fewer nodes than an
  // exhaustive sweep (the Section V-C argument for topology-aware search).
  Rng rng(3);
  const auto t = Topology::random_radial(200, 4, rng, 0.0);
  std::vector<Kw> actual(200);
  for (std::size_t i = 0; i < 200; ++i) actual[i] = 1.0 + 0.01 * i;
  std::vector<Kw> reported = actual;
  reported[137] *= 0.5;

  const auto pruned = investigate_case2(t, actual, reported);
  const auto exhaustive = investigate_exhaustive(t, actual, reported);

  ASSERT_FALSE(pruned.suspects.empty());
  EXPECT_TRUE(std::find(pruned.suspects.begin(), pruned.suspects.end(), 137u) !=
              pruned.suspects.end());
  EXPECT_EQ(exhaustive.suspects.size(), 1u);
  EXPECT_EQ(exhaustive.suspects[0], 137u);
  EXPECT_LT(pruned.checks_performed, exhaustive.checks_performed);
}

TEST(InvestigateCase2, MultipleThievesAllLocalised) {
  const auto t = three_level();
  const std::vector<Kw> actual{1.0, 2.0, 3.0, 4.0};
  std::vector<Kw> reported = actual;
  reported[0] = 0.1;
  reported[3] = 0.4;
  const auto result = investigate_case2(t, actual, reported);
  EXPECT_TRUE(std::find(result.suspects.begin(), result.suspects.end(), 0u) !=
              result.suspects.end());
  EXPECT_TRUE(std::find(result.suspects.begin(), result.suspects.end(), 3u) !=
              result.suspects.end());
}

// A negative tolerance fails every balanced check and names honest meters;
// a non-finite one decides nothing.  Every entry point rejects both.
TEST(InvestigateTolerance, NegativeOrNonFiniteIsRejected) {
  const auto t = three_level();
  const std::vector<Kw> actual{1.0, 2.0, 3.0, 4.0};
  const NodeId a = t.node(t.consumer_leaf(0)).parent;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -1e-12, nan, inf}) {
    SCOPED_TRACE(::testing::Message() << "tolerance=" << bad);
    EXPECT_THROW(run_balance_checks(t, actual, actual, {}, bad),
                 InvalidArgument);
    EXPECT_THROW(investigate_case2(t, actual, actual, bad), InvalidArgument);
    EXPECT_THROW(investigate_case2(
                     t, NodeResiduals::compute(t, actual, actual), bad),
                 InvalidArgument);
    EXPECT_THROW(simplified_balance_check(t, a, actual, actual, bad),
                 InvalidArgument);
    EXPECT_THROW(investigate_exhaustive(t, actual, actual, bad),
                 InvalidArgument);
  }
  // Zero is exact balance, still a valid tolerance.
  EXPECT_TRUE(investigate_case2(t, actual, actual, 0.0).suspects.empty());
}

// A chain deeper than any call stack: the demand walk and the descent are
// loops, so a 200,000-node chain conserves demand at every node and the
// portable meter follows it all the way down to the thief.
TEST(InvestigateCase2, DeepChainLocalisesTheBottomNode) {
  constexpr std::size_t kChain = 200000;
  Topology t;
  t.add_consumer(t.root(), 1000);  // honest, at the top
  NodeId bottom = t.root();
  for (std::size_t d = 0; d < kChain; ++d) {
    bottom = t.add_internal(bottom, /*has_balance_meter=*/false);
  }
  t.add_consumer(bottom, 1001);  // the thief
  t.add_consumer(bottom, 1002);
  const std::vector<Kw> actual{1.0, 2.0, 3.0};
  std::vector<Kw> reported = actual;
  reported[1] = 0.5;

  const std::vector<Kw> demand = t.node_demands(actual);
  std::size_t unbalanced = 0;
  for (std::size_t id = 0; id < t.node_count(); ++id) {
    const Node& n = t.node(static_cast<NodeId>(id));
    if (n.kind != NodeKind::kInternal) continue;
    double children = 0.0;
    for (const NodeId c : n.children) children += demand[c];
    unbalanced += demand[id] == children ? 0 : 1;
  }
  EXPECT_EQ(unbalanced, 0u);
  EXPECT_EQ(demand[t.root()], 6.0);
  EXPECT_EQ(demand[bottom], 5.0);

  const auto result = investigate_case2(t, actual, reported);
  EXPECT_EQ(result.localized_node, bottom);
  EXPECT_EQ(result.suspects, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(result.checks_performed, kChain + 1);
  ASSERT_EQ(result.steps.size(), kChain + 3);
  EXPECT_EQ(result.steps[kChain + 1].branch,
            InvestigationBranch::kLeafSuspects);
  EXPECT_EQ(result.steps.back().branch, InvestigationBranch::kLocalized);
  EXPECT_EQ(result.steps.back().depth, static_cast<int>(kChain));
}

TEST(InvestigateExhaustive, CostIsAlwaysN) {
  const auto t = three_level();
  const std::vector<Kw> actual{1.0, 2.0, 3.0, 4.0};
  const auto result = investigate_exhaustive(t, actual, actual);
  EXPECT_EQ(result.checks_performed, 4u);
}

}  // namespace
}  // namespace fdeta::grid
