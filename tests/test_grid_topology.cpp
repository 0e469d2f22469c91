#include "grid/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "grid/tree_index.h"

#include "common/error.h"
#include "common/rng.h"

namespace fdeta::grid {
namespace {

TEST(Topology, StartsWithMeteredRoot) {
  const Topology t;
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.node(t.root()).kind, NodeKind::kInternal);
  EXPECT_TRUE(t.node(t.root()).has_balance_meter);
}

TEST(Topology, AddNodesBuildsTree) {
  Topology t;
  const NodeId feeder = t.add_internal(t.root());
  const NodeId c0 = t.add_consumer(feeder, 1000);
  const NodeId loss = t.add_loss(feeder, 0.05);
  EXPECT_EQ(t.node(c0).parent, feeder);
  EXPECT_EQ(t.node(loss).parent, feeder);
  EXPECT_EQ(t.consumer_count(), 1u);
  EXPECT_EQ(t.consumer_leaf(0), c0);
}

TEST(Topology, CannotAttachToLeaf) {
  Topology t;
  const NodeId c0 = t.add_consumer(t.root(), 1000);
  EXPECT_THROW(t.add_consumer(c0, 1001), InvalidArgument);
}

TEST(Topology, DepthAndPath) {
  Topology t;
  const NodeId a = t.add_internal(t.root());
  const NodeId b = t.add_internal(a);
  const NodeId c = t.add_consumer(b, 1000);
  EXPECT_EQ(t.depth(t.root()), 0);
  EXPECT_EQ(t.depth(c), 3);
  const auto path = t.path_to_root(c);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), c);
  EXPECT_EQ(path.back(), t.root());
}

TEST(Topology, ConsumersUnderSubtree) {
  Topology t;
  const NodeId left = t.add_internal(t.root());
  const NodeId right = t.add_internal(t.root());
  t.add_consumer(left, 1000);
  t.add_consumer(left, 1001);
  t.add_consumer(right, 1002);
  const auto under_left = t.consumers_under(left);
  ASSERT_EQ(under_left.size(), 2u);
  EXPECT_EQ(under_left[0], 0u);
  EXPECT_EQ(under_left[1], 1u);
  EXPECT_EQ(t.consumers_under(t.root()).size(), 3u);
}

// Eq. (4): demand at a node equals the sum of its children's demands,
// including loss leaves.
TEST(Topology, NodeDemandsObeyEquation4) {
  Topology t;
  const NodeId n1 = t.add_internal(t.root());
  const NodeId n2 = t.add_internal(n1);
  t.add_consumer(n2, 1000);
  t.add_consumer(n2, 1001);
  t.add_consumer(n1, 1002);
  const NodeId l1 = t.add_loss(n1, 0.10);
  const NodeId l2 = t.add_loss(n2, 0.05);

  const std::vector<Kw> demand{2.0, 3.0, 5.0};
  const auto node_kw = t.node_demands(demand);

  // n2: consumers 2+3 plus its own 5% loss.
  const double n2_consumers = 5.0;
  EXPECT_NEAR(node_kw[l2], 0.05 * n2_consumers, 1e-12);
  EXPECT_NEAR(node_kw[n2], n2_consumers * 1.05, 1e-12);
  // n1: n2 subtree + consumer 5 + 10% loss of (n2 + c).
  const double n1_non_loss = node_kw[n2] + 5.0;
  EXPECT_NEAR(node_kw[l1], 0.10 * n1_non_loss, 1e-12);
  EXPECT_NEAR(node_kw[n1], n1_non_loss * 1.10, 1e-12);
  EXPECT_NEAR(node_kw[t.root()], node_kw[n1], 1e-12);
}

TEST(Topology, NodeDemandsSizeMismatchThrows) {
  Topology t;
  t.add_consumer(t.root(), 1000);
  EXPECT_THROW(t.node_demands(std::vector<Kw>{1.0, 2.0}), InvalidArgument);
}

TEST(Topology, SingleFeederShape) {
  const auto t = Topology::single_feeder(10, 0.05);
  EXPECT_EQ(t.consumer_count(), 10u);
  // root + 10 consumers + 1 loss.
  EXPECT_EQ(t.node_count(), 12u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(t.node(t.consumer_leaf(i)).parent, t.root());
  }
}

TEST(Topology, RandomRadialHoldsAllConsumers) {
  Rng rng(1);
  const auto t = Topology::random_radial(100, 4, rng);
  EXPECT_EQ(t.consumer_count(), 100u);
  // Every consumer reachable from the root.
  EXPECT_EQ(t.consumers_under(t.root()).size(), 100u);
  // Multi-level tree (consumers deeper than the root's children).
  int max_depth = 0;
  for (std::size_t i = 0; i < t.consumer_count(); ++i) {
    max_depth = std::max(max_depth, t.depth(t.consumer_leaf(i)));
  }
  EXPECT_GE(max_depth, 2);
}

TEST(Topology, RandomRadialDemandConservation) {
  Rng rng(2);
  const auto t = Topology::random_radial(50, 3, rng, 0.0);
  std::vector<Kw> demand(50);
  double total = 0.0;
  for (std::size_t i = 0; i < 50; ++i) {
    demand[i] = static_cast<double>(i) * 0.1;
    total += demand[i];
  }
  const auto node_kw = t.node_demands(demand);
  // Zero losses: root demand equals total consumer demand.
  EXPECT_NEAR(node_kw[t.root()], total, 1e-9);
}

// The index's subtree and consumer ranges are the subtree walks: every
// node's range holds exactly its descendants, children follow their parent
// in `children` order, and its consumers are Topology::consumers_under's.
TEST(TreeIndex, RangesAreSubtrees) {
  for (const std::uint64_t seed : {1ull, 4ull, 9ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed);
    const auto t = Topology::random_radial(60 + seed, 4, rng);
    const TreeIndex index(t);
    ASSERT_EQ(index.size(), t.node_count());
    EXPECT_EQ(index.position(t.root()), 0u);
    EXPECT_EQ(index.subtree_end(t.root()), t.node_count());
    for (std::size_t id = 0; id < t.node_count(); ++id) {
      const auto nid = static_cast<NodeId>(id);
      const Node& n = t.node(nid);
      EXPECT_EQ(index.node_at(index.position(nid)), nid);
      // Children tile the parent's range, in order, right behind it.
      std::size_t next = index.position(nid) + 1;
      for (const NodeId c : n.children) {
        EXPECT_EQ(index.position(c), next);
        next = index.subtree_end(c);
      }
      EXPECT_EQ(next, index.subtree_end(nid));
      std::vector<std::size_t> consumers(index.consumers_under(nid).begin(),
                                         index.consumers_under(nid).end());
      std::sort(consumers.begin(), consumers.end());
      EXPECT_EQ(consumers, t.consumers_under(nid)) << "node " << nid;
      if (n.parent != kNoNode) {
        EXPECT_EQ(n.depth, t.node(n.parent).depth + 1);
      }
    }
  }
}

}  // namespace
}  // namespace fdeta::grid
