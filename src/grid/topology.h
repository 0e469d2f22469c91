// Radial electric-distribution topology as an unbalanced n-ary tree
// (Section V, Fig. 2).  Internal nodes are buses/transformers that may carry
// balance meters; leaves are either consumers or loss nodes modelling line
// impedance and transformer losses.  Active power is additive, so the demand
// at an internal node is the sum of its children's demands (eq. 4).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "meter/consumer.h"

namespace fdeta::grid {

using NodeId = int;
inline constexpr NodeId kNoNode = -1;

enum class NodeKind : std::uint8_t { kInternal, kConsumer, kLoss };

struct Node {
  NodeKind kind = NodeKind::kInternal;
  NodeId parent = kNoNode;
  int depth = 0;                 ///< edges from the root (root = 0)
  std::vector<NodeId> children;  // internal nodes only

  // Consumer leaves:
  meter::ConsumerId consumer_id = 0;
  std::size_t consumer_index = 0;  ///< dense index into demand vectors

  // Loss leaves: demand = loss_fraction * (sum of sibling demands).
  double loss_fraction = 0.0;

  // Internal nodes:
  bool has_balance_meter = false;
};

/// Immutable-after-build tree.  Node 0 is always the root (the distribution
/// substation that connects to the transmission grid).  Nodes only append,
/// under an existing parent, so a child's id always exceeds its parent's.
class Topology {
 public:
  /// Starts a topology containing only the root node (with a balance meter:
  /// the paper assumes the root meter is trusted and present,
  /// Section VII-A).
  Topology();

  /// Adds an internal node under `parent`; returns its id.
  NodeId add_internal(NodeId parent, bool has_balance_meter = true);

  /// Adds a consumer leaf under `parent`; consumer_index is assigned densely
  /// in insertion order.
  NodeId add_consumer(NodeId parent, meter::ConsumerId id);

  /// Adds a loss leaf under `parent`.
  NodeId add_loss(NodeId parent, double loss_fraction);

  NodeId root() const { return 0; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t consumer_count() const { return consumer_leaves_.size(); }
  const Node& node(NodeId id) const;

  /// Node id of the consumer leaf with dense index `consumer_index`.
  NodeId consumer_leaf(std::size_t consumer_index) const;

  /// Dense consumer indices of all consumer leaves in the subtree of `id`,
  /// ascending: one O(subtree) walk, for one-off queries.  A caller that
  /// asks for every node's consumers reads grid::TreeIndex ranges instead.
  std::vector<std::size_t> consumers_under(NodeId id) const;

  /// Depth of `id` (root = 0), stored when the node was added: O(1).
  int depth(NodeId id) const { return node(id).depth; }

  /// Path from `id` up to (and including) the root.
  std::vector<NodeId> path_to_root(NodeId id) const;

  /// Actual demand at every node given per-consumer actual demands (indexed
  /// by consumer_index).  Loss-leaf demands are computed as
  /// loss_fraction * (sum of sibling subtree demands); internal demands obey
  /// eq. (4).  Returns one value per node; one loop over the ids, however
  /// deep the tree.
  std::vector<Kw> node_demands(std::span<const Kw> consumer_demand) const;

  /// -- Builders ---------------------------------------------------------

  /// A single feeder: root -> {all consumers, one loss leaf}.  This is the
  /// paper's evaluation topology (Section VIII-A: only the root balance
  /// meter is assumed deployed/trusted).
  static Topology single_feeder(std::size_t consumers,
                                double loss_fraction = 0.05);

  /// A random radial tree: internal nodes fan out up to `max_fanout`,
  /// consumers attach at the deepest level, every internal node gets a loss
  /// leaf and a balance meter.
  static Topology random_radial(std::size_t consumers, std::size_t max_fanout,
                                Rng& rng, double loss_fraction = 0.02);

 private:
  /// Checks that `parent` is an internal node and appends `n` under it.
  NodeId append(NodeId parent, Node n);

  std::vector<Node> nodes_;
  std::vector<NodeId> consumer_leaves_;  // by dense consumer index
};

}  // namespace fdeta::grid
