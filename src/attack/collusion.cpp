#include "attack/collusion.h"

#include <algorithm>

#include "common/error.h"
#include "grid/tree_index.h"

namespace fdeta::attack {

CollusionScenario make_collusion_scenario(const grid::Topology& topology,
                                          const meter::Dataset& actual,
                                          std::size_t group_size,
                                          double shave_fraction,
                                          std::size_t week) {
  require(group_size >= 1, "make_collusion_scenario: group_size >= 1");
  require(shave_fraction > 0.0 && shave_fraction < 1.0,
          "make_collusion_scenario: shave_fraction in (0, 1)");
  require(actual.consumer_count() == topology.consumer_count(),
          "make_collusion_scenario: dataset does not match topology");
  require(week < actual.week_count(),
          "make_collusion_scenario: week out of range");

  // Deepest internal node with a big-enough sibling pool; ascending-id scan
  // with strict > keeps the smallest id among ties.  One index makes the
  // scan O(nodes) however deep the tree.
  const grid::TreeIndex index(topology);
  grid::NodeId best = grid::kNoNode;
  int best_depth = -1;
  for (std::size_t id = 0; id < topology.node_count(); ++id) {
    const grid::NodeId nid = static_cast<grid::NodeId>(id);
    const grid::Node& node = topology.node(nid);
    if (node.kind != grid::NodeKind::kInternal) continue;
    if (index.consumers_under(nid).size() < group_size) continue;
    if (node.depth > best_depth) {
      best_depth = node.depth;
      best = nid;
    }
  }
  require(best != grid::kNoNode,
          "make_collusion_scenario: no internal node has group_size "
          "consumer descendants");

  // The node's first group_size consumers by dense index, ascending.
  CollusionScenario scenario;
  scenario.node = best;
  const std::span<const std::size_t> pool = index.consumers_under(best);
  scenario.consumers.resize(group_size);
  std::partial_sort_copy(pool.begin(), pool.end(), scenario.consumers.begin(),
                         scenario.consumers.end());

  scenario.injections.reserve(group_size);
  for (const std::size_t i : scenario.consumers) {
    WeekInjection injection;
    injection.consumer_index = i;
    injection.week = week;
    const std::span<const Kw> actual_week = actual.consumer(i).week(week);
    injection.reported_week.assign(actual_week.begin(), actual_week.end());
    for (Kw& kw : injection.reported_week) kw *= 1.0 - shave_fraction;
    scenario.injections.push_back(std::move(injection));
  }
  return scenario;
}

}  // namespace fdeta::attack
