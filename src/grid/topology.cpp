#include "grid/topology.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace fdeta::grid {

Topology::Topology() {
  Node root;
  root.kind = NodeKind::kInternal;
  root.has_balance_meter = true;
  nodes_.push_back(root);
}

NodeId Topology::append(NodeId parent, Node n) {
  require(parent >= 0 && static_cast<std::size_t>(parent) < nodes_.size(),
          "Topology: parent out of range");
  require(nodes_[parent].kind == NodeKind::kInternal,
          "Topology: parent must be an internal node");
  n.parent = parent;
  n.depth = nodes_[parent].depth + 1;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  nodes_[parent].children.push_back(id);
  return id;
}

NodeId Topology::add_internal(NodeId parent, bool has_balance_meter) {
  Node n;
  n.kind = NodeKind::kInternal;
  n.has_balance_meter = has_balance_meter;
  return append(parent, std::move(n));
}

NodeId Topology::add_consumer(NodeId parent, meter::ConsumerId consumer_id) {
  Node n;
  n.kind = NodeKind::kConsumer;
  n.consumer_id = consumer_id;
  n.consumer_index = consumer_leaves_.size();
  const NodeId id = append(parent, std::move(n));
  consumer_leaves_.push_back(id);
  return id;
}

NodeId Topology::add_loss(NodeId parent, double loss_fraction) {
  require(loss_fraction >= 0.0, "Topology: negative loss fraction");
  Node n;
  n.kind = NodeKind::kLoss;
  n.loss_fraction = loss_fraction;
  return append(parent, std::move(n));
}

const Node& Topology::node(NodeId id) const {
  require(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
          "Topology::node: id out of range");
  return nodes_[id];
}

NodeId Topology::consumer_leaf(std::size_t consumer_index) const {
  require(consumer_index < consumer_leaves_.size(),
          "Topology::consumer_leaf: index out of range");
  return consumer_leaves_[consumer_index];
}

std::vector<std::size_t> Topology::consumers_under(NodeId id) const {
  std::vector<std::size_t> out;
  std::vector<NodeId> stack{id};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    const Node& n = node(cur);
    if (n.kind == NodeKind::kConsumer) {
      out.push_back(n.consumer_index);
    } else if (n.kind == NodeKind::kInternal) {
      for (NodeId c : n.children) stack.push_back(c);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Topology::path_to_root(NodeId id) const {
  std::vector<NodeId> path;
  for (NodeId cur = id;; cur = node(cur).parent) {
    path.push_back(cur);
    if (node(cur).parent == kNoNode) break;
  }
  return path;
}

std::vector<Kw> Topology::node_demands(
    std::span<const Kw> consumer_demand) const {
  require(consumer_demand.size() == consumer_leaves_.size(),
          "Topology::node_demands: demand vector size mismatch");
  std::vector<Kw> out(nodes_.size(), 0.0);
  // Children have larger ids than their parent, so walking the ids down
  // finishes every subtree before its root: each internal node sums its
  // children's demands in `children` order, as a recursive walk would.
  for (std::size_t id = nodes_.size(); id-- > 0;) {
    const Node& n = nodes_[id];
    if (n.kind == NodeKind::kConsumer) {
      out[id] = consumer_demand[n.consumer_index];
    } else if (n.kind == NodeKind::kInternal) {
      double non_loss = 0.0;
      for (NodeId c : n.children) {
        if (nodes_[c].kind != NodeKind::kLoss) non_loss += out[c];
      }
      // A loss leaf's demand depends on its siblings', so its parent sets it.
      double total = non_loss;
      for (NodeId c : n.children) {
        if (nodes_[c].kind == NodeKind::kLoss) {
          out[c] = nodes_[c].loss_fraction * non_loss;
          total += out[c];
        }
      }
      out[id] = total;
    }
  }
  return out;
}

Topology Topology::single_feeder(std::size_t consumers, double loss_fraction) {
  require(consumers >= 1, "single_feeder: need at least one consumer");
  Topology t;
  for (std::size_t i = 0; i < consumers; ++i) {
    t.add_consumer(t.root(), static_cast<meter::ConsumerId>(1000 + i));
  }
  t.add_loss(t.root(), loss_fraction);
  return t;
}

Topology Topology::random_radial(std::size_t consumers, std::size_t max_fanout,
                                 Rng& rng, double loss_fraction) {
  require(consumers >= 1, "random_radial: need at least one consumer");
  require(max_fanout >= 2, "random_radial: max_fanout must be >= 2");
  Topology t;
  t.add_loss(t.root(), loss_fraction);

  // Grow internal nodes breadth-first until there are enough attachment
  // points, then attach consumers round-robin.
  std::vector<NodeId> frontier{t.root()};
  std::size_t attachment_points = 1;
  while (attachment_points * (max_fanout - 1) < consumers) {
    std::vector<NodeId> next;
    for (NodeId n : frontier) {
      const std::size_t kids = 2 + rng.below(max_fanout - 1);
      for (std::size_t k = 0; k < kids; ++k) {
        const NodeId child = t.add_internal(n, /*has_balance_meter=*/true);
        t.add_loss(child, loss_fraction);
        next.push_back(child);
      }
    }
    frontier = std::move(next);
    attachment_points = frontier.size();
  }

  for (std::size_t i = 0; i < consumers; ++i) {
    const NodeId parent = frontier[i % frontier.size()];
    t.add_consumer(parent, static_cast<meter::ConsumerId>(1000 + i));
  }
  return t;
}

}  // namespace fdeta::grid
