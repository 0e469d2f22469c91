// One traversal of a radial tree, shared by every walker that visits all of
// its nodes (DESIGN.md §14).
//
// The index lays the nodes out in DFS pre-order (children in `children`
// order), so every subtree is one contiguous range of positions, and the
// consumer leaves in the same order, so every node's consumers are one
// contiguous range too.  Reverse pre-order meets every child before its
// parent: the post-order that bottom-up sums need, with no recursion and no
// per-node vectors.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "grid/topology.h"

namespace fdeta::grid {

class TreeIndex {
 public:
  /// Indexes `topology` in O(nodes): two loops over the ids, one bottom up
  /// for the subtree sizes, one top down for the positions.
  explicit TreeIndex(const Topology& topology);

  std::size_t size() const { return order_.size(); }

  /// The node at pre-order position `pos`; position 0 is the root.
  NodeId node_at(std::size_t pos) const { return order_[pos]; }

  /// `id`'s pre-order position; its subtree is the positions
  /// [position(id), subtree_end(id)).
  std::size_t position(NodeId id) const {
    return position_[static_cast<std::size_t>(id)];
  }
  std::size_t subtree_end(NodeId id) const {
    return subtree_end_[static_cast<std::size_t>(id)];
  }

  /// Dense consumer indices of `id`'s subtree, in pre-order (not sorted).
  std::span<const std::size_t> consumers_under(NodeId id) const {
    const auto n = static_cast<std::size_t>(id);
    return {consumers_.data() + consumers_begin_[n],
            consumers_end_[n] - consumers_begin_[n]};
  }

 private:
  std::vector<NodeId> order_;                 // by position
  std::vector<std::size_t> position_;         // by node id
  std::vector<std::size_t> subtree_end_;      // by node id
  std::vector<std::size_t> consumers_;        // consumer indices, pre-order
  std::vector<std::size_t> consumers_begin_;  // by node id, into consumers_
  std::vector<std::size_t> consumers_end_;    // by node id
};

}  // namespace fdeta::grid
