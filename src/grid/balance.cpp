#include "grid/balance.h"

#include <cmath>

#include "common/error.h"
#include "grid/hierarchy/residuals.h"

namespace fdeta::grid {

std::vector<NodeId> BalanceOutcome::failing_nodes() const {
  std::vector<NodeId> out;
  for (std::size_t id = 0; id < status.size(); ++id) {
    if (status[id] == CheckStatus::kFailed) {
      out.push_back(static_cast<NodeId>(id));
    }
  }
  return out;
}

BalanceOutcome run_balance_checks(
    const Topology& topology, std::span<const Kw> actual,
    std::span<const Kw> reported,
    const std::unordered_set<NodeId>& compromised_meters,
    double tolerance_kw) {
  require(actual.size() == reported.size(),
          "run_balance_checks: actual/reported size mismatch");
  require(std::isfinite(tolerance_kw) && tolerance_kw >= 0.0,
          "run_balance_checks: tolerance must be finite and >= 0");

  // Eq. (5) both sides in one walk: physics (actual flows) vs the utility's
  // reconstruction (reported readings plus calculated losses).
  const NodeResiduals residuals =
      NodeResiduals::compute(topology, actual, reported);

  BalanceOutcome outcome;
  outcome.status.assign(topology.node_count(), CheckStatus::kNotChecked);
  for (std::size_t id = 0; id < topology.node_count(); ++id) {
    const Node& n = topology.node(static_cast<NodeId>(id));
    if (n.kind != NodeKind::kInternal || !n.has_balance_meter) continue;
    if (compromised_meters.contains(static_cast<NodeId>(id))) {
      // A compromised meter reports the value that satisfies its own check.
      outcome.status[id] = CheckStatus::kPassed;
      continue;
    }
    outcome.status[id] =
        residuals.check_fails(static_cast<NodeId>(id), tolerance_kw)
            ? CheckStatus::kFailed
            : CheckStatus::kPassed;
  }
  return outcome;
}

bool simplified_balance_check(const Topology& topology, NodeId node,
                              std::span<const Kw> actual,
                              std::span<const Kw> reported,
                              double tolerance_kw) {
  require(actual.size() == reported.size(),
          "simplified_balance_check: size mismatch");
  require(std::isfinite(tolerance_kw) && tolerance_kw >= 0.0,
          "simplified_balance_check: tolerance must be finite and >= 0");
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t c : topology.consumers_under(node)) {
    rhs += actual[c];
    lhs += reported[c];
  }
  return std::fabs(lhs - rhs) <= tolerance_kw;
}

std::vector<NodeId> meters_to_compromise(
    const Topology& topology, std::size_t consumer_index,
    const std::unordered_set<NodeId>& trusted) {
  std::vector<NodeId> meters;
  const NodeId leaf = topology.consumer_leaf(consumer_index);
  for (const NodeId id : topology.path_to_root(leaf)) {
    const Node& n = topology.node(id);
    if (n.kind == NodeKind::kInternal && n.has_balance_meter &&
        !trusted.contains(id)) {
      meters.push_back(id);
    }
  }
  return meters;
}

std::vector<NodeId> inconsistent_meter_alarms(const Topology& topology,
                                              const BalanceOutcome& outcome) {
  std::vector<NodeId> alarms;
  for (std::size_t id = 0; id < topology.node_count(); ++id) {
    const NodeId nid = static_cast<NodeId>(id);
    const Node& n = topology.node(nid);
    if (n.kind != NodeKind::kInternal) continue;

    // Rule (a): W true here, W false at the metered parent => one of the two
    // meters is faulty or compromised.
    if (outcome.checked(nid) && outcome.failed(nid) && n.parent != kNoNode &&
        outcome.checked(n.parent) && !outcome.failed(n.parent)) {
      alarms.push_back(nid);
      continue;
    }

    // Rule (b): W true at a parent of internal nodes whose metered internal
    // children all have W false => the parent (or a child) is suspect.
    if (outcome.checked(nid) && outcome.failed(nid)) {
      bool has_metered_internal_child = false;
      bool all_children_pass = true;
      for (NodeId c : n.children) {
        if (topology.node(c).kind != NodeKind::kInternal) continue;
        if (!outcome.checked(c)) continue;
        has_metered_internal_child = true;
        if (outcome.failed(c)) all_children_pass = false;
      }
      if (has_metered_internal_child && all_children_pass) {
        alarms.push_back(nid);
      }
    }
  }
  return alarms;
}

}  // namespace fdeta::grid
