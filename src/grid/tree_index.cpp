#include "grid/tree_index.h"

namespace fdeta::grid {

TreeIndex::TreeIndex(const Topology& topology)
    : order_(topology.node_count()),
      position_(topology.node_count(), 0),
      subtree_end_(topology.node_count(), 1),
      consumers_(topology.consumer_count()),
      consumers_begin_(topology.node_count(), 0),
      consumers_end_(topology.node_count(), 0) {
  const std::size_t count = topology.node_count();
  // Bottom up (a child's id exceeds its parent's): subtree_end_ and
  // consumers_end_ first hold each subtree's node and consumer counts.
  for (std::size_t id = count; id-- > 0;) {
    const Node& n = topology.node(static_cast<NodeId>(id));
    if (n.kind == NodeKind::kConsumer) ++consumers_end_[id];
    if (n.parent == kNoNode) continue;
    const auto parent = static_cast<std::size_t>(n.parent);
    subtree_end_[parent] += subtree_end_[id];
    consumers_end_[parent] += consumers_end_[id];
  }
  // Top down: a parent lays its children out one after another behind
  // itself, then turns its own counts into range ends.  Its children still
  // hold counts then, since their ids are larger.
  for (std::size_t id = 0; id < count; ++id) {
    const Node& n = topology.node(static_cast<NodeId>(id));
    std::size_t next = position_[id] + 1;
    std::size_t next_consumer = consumers_begin_[id];
    for (const NodeId c : n.children) {
      const auto child = static_cast<std::size_t>(c);
      position_[child] = next;
      consumers_begin_[child] = next_consumer;
      next += subtree_end_[child];
      next_consumer += consumers_end_[child];
    }
    subtree_end_[id] += position_[id];
    consumers_end_[id] += consumers_begin_[id];
    order_[position_[id]] = static_cast<NodeId>(id);
    if (n.kind == NodeKind::kConsumer) {
      consumers_[consumers_begin_[id]] = n.consumer_index;
    }
  }
}

}  // namespace fdeta::grid
