#include "grid/investigate.h"

#include <cmath>

#include "common/error.h"
#include "obs/event_log.h"

namespace fdeta::grid {

const char* to_string(InvestigationBranch branch) {
  switch (branch) {
    case InvestigationBranch::kBalanced: return "balanced";
    case InvestigationBranch::kDescend: return "descend";
    case InvestigationBranch::kPruned: return "pruned";
    case InvestigationBranch::kLeafSuspects: return "leaf_suspects";
    case InvestigationBranch::kDeeperFailure: return "deeper_failure";
    case InvestigationBranch::kMeterFault: return "meter_fault";
    case InvestigationBranch::kLocalized: return "localized";
  }
  return "?";
}

namespace {

/// Emits the recorded audit trail as investigation_step events.  Done once
/// at the end (not per step) so the descent stays event-log-agnostic.
void emit_steps(obs::EventLog* events, const char* mode,
                const std::vector<InvestigationStep>& steps) {
  if (events == nullptr || !events->enabled()) return;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const InvestigationStep& s = steps[i];
    events->emit("investigation_step",
                 obs::EventFields{}
                     .str("mode", mode)
                     .u64("step", i)
                     .i64("node", s.node)
                     .i64("depth", s.depth)
                     .f64("imbalance_kw", s.imbalance_kw)
                     .str("branch", to_string(s.branch))
                     .u64("suspects", s.suspects));
  }
}

}  // namespace

InvestigationResult investigate_case1(const Topology& topology,
                                      const BalanceOutcome& outcome,
                                      obs::EventLog* events) {
  InvestigationResult result;
  // Deepest failing node with no failing internal descendant: scan all
  // failing nodes, prefer maximum depth; each metered node costs one reading.
  int best_depth = -1;
  for (NodeId id : outcome.failing_nodes()) {
    ++result.checks_performed;
    bool has_failing_internal_child = false;
    for (NodeId c : topology.node(id).children) {
      if (topology.node(c).kind == NodeKind::kInternal && outcome.checked(c) &&
          outcome.failed(c)) {
        has_failing_internal_child = true;
        break;
      }
    }
    InvestigationStep step;
    step.node = id;
    step.depth = topology.depth(id);
    // Case 1 works from boolean W events; no flow magnitudes are available.
    step.imbalance_kw = 0.0;
    if (has_failing_internal_child) {
      step.branch = InvestigationBranch::kDeeperFailure;
      result.steps.push_back(step);
      continue;
    }
    step.branch = InvestigationBranch::kLeafSuspects;
    result.steps.push_back(step);
    const int d = topology.depth(id);
    if (d > best_depth) {
      best_depth = d;
      result.localized_node = id;
    }
  }
  if (result.localized_node != kNoNode) {
    result.suspects = topology.consumers_under(result.localized_node);
    InvestigationStep step;
    step.node = result.localized_node;
    step.depth = topology.depth(result.localized_node);
    step.branch = InvestigationBranch::kLocalized;
    step.suspects = result.suspects.size();
    result.steps.push_back(step);
  }
  // Section V-B consistency rules: meters whose W flags contradict their
  // neighbours' are themselves suspect (fault or compromise).
  for (NodeId id : inconsistent_meter_alarms(topology, outcome)) {
    InvestigationStep step;
    step.node = id;
    step.depth = topology.depth(id);
    step.branch = InvestigationBranch::kMeterFault;
    result.steps.push_back(step);
  }
  emit_steps(events, "case1", result.steps);
  return result;
}

namespace {

/// Depth-first descent from the root, whose check is known to fail.  At each
/// node it checks every internal child with the portable meter (one
/// residual lookup) and descends into each failing one as soon as it is
/// checked; if no internal child fails, the divergence sits among the
/// node's directly attached consumer leaves (to within measurement
/// tolerance).  An explicit stack replaces recursion, so the depth of the
/// tree is bounded by memory, not by the call stack; the steps come out in
/// the order the recursion took them.
void descend(const Topology& topology, const NodeResiduals& residuals,
             double tolerance_kw, InvestigationResult& result) {
  struct Frame {
    NodeId node;
    std::size_t next_child = 0;
    bool any_failing_child = false;
  };
  std::vector<Frame> stack{{topology.root()}};
  int best_depth = -1;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const Node& node = topology.node(frame.node);
    const int depth = node.depth;
    if (frame.next_child == 0 && depth > best_depth) {
      best_depth = depth;
      result.localized_node = frame.node;
    }
    if (frame.next_child < node.children.size()) {
      const NodeId c = node.children[frame.next_child++];
      if (topology.node(c).kind != NodeKind::kInternal) continue;
      ++result.checks_performed;
      InvestigationStep step;
      step.node = c;
      step.depth = depth + 1;
      step.imbalance_kw = residuals.imbalance_kw(c);
      if (residuals.check_fails(c, tolerance_kw)) {
        frame.any_failing_child = true;
        step.branch = InvestigationBranch::kDescend;
        result.steps.push_back(step);
        stack.push_back({c});  // invalidates `frame`
      } else {
        step.branch = InvestigationBranch::kPruned;
        result.steps.push_back(step);
      }
      continue;
    }
    if (!frame.any_failing_child) {
      std::size_t added = 0;
      for (NodeId c : node.children) {
        if (topology.node(c).kind == NodeKind::kConsumer) {
          result.suspects.push_back(topology.node(c).consumer_index);
          ++added;
        }
      }
      InvestigationStep step;
      step.node = frame.node;
      step.depth = depth;
      step.imbalance_kw = residuals.imbalance_kw(frame.node);
      step.branch = InvestigationBranch::kLeafSuspects;
      step.suspects = added;
      result.steps.push_back(step);
    }
    stack.pop_back();
  }
}

}  // namespace

InvestigationResult investigate_case2(const Topology& topology,
                                      std::span<const Kw> actual,
                                      std::span<const Kw> reported,
                                      double tolerance_kw,
                                      obs::EventLog* events) {
  require(actual.size() == reported.size(), "investigate_case2: size mismatch");
  return investigate_case2(topology,
                           NodeResiduals::compute(topology, actual, reported),
                           tolerance_kw, events);
}

InvestigationResult investigate_case2(const Topology& topology,
                                      const NodeResiduals& residuals,
                                      double tolerance_kw,
                                      obs::EventLog* events) {
  require(residuals.node_count() == topology.node_count(),
          "investigate_case2: residuals do not match topology");
  require(std::isfinite(tolerance_kw) && tolerance_kw >= 0.0,
          "investigate_case2: tolerance must be finite and >= 0");
  InvestigationResult result;

  // Root check first; if it passes there is nothing to investigate.
  ++result.checks_performed;
  InvestigationStep root_step;
  root_step.node = topology.root();
  root_step.depth = 0;
  root_step.imbalance_kw = residuals.imbalance_kw(topology.root());
  if (!residuals.check_fails(topology.root(), tolerance_kw)) {
    root_step.branch = InvestigationBranch::kBalanced;
    result.steps.push_back(root_step);
    emit_steps(events, "case2", result.steps);
    return result;
  }
  root_step.branch = InvestigationBranch::kDescend;
  result.steps.push_back(root_step);
  descend(topology, residuals, tolerance_kw, result);
  {
    InvestigationStep step;
    step.node = result.localized_node;
    step.depth = topology.depth(result.localized_node);
    step.imbalance_kw = residuals.imbalance_kw(result.localized_node);
    step.branch = InvestigationBranch::kLocalized;
    step.suspects = result.suspects.size();
    result.steps.push_back(step);
  }
  emit_steps(events, "case2", result.steps);
  return result;
}

InvestigationResult investigate_exhaustive(const Topology& topology,
                                           std::span<const Kw> actual,
                                           std::span<const Kw> reported,
                                           double tolerance_kw) {
  require(actual.size() == reported.size(),
          "investigate_exhaustive: size mismatch");
  require(std::isfinite(tolerance_kw) && tolerance_kw >= 0.0,
          "investigate_exhaustive: tolerance must be finite and >= 0");
  InvestigationResult result;
  for (std::size_t i = 0; i < topology.consumer_count(); ++i) {
    ++result.checks_performed;
    if (std::fabs(actual[i] - reported[i]) > tolerance_kw) {
      result.suspects.push_back(i);
    }
  }
  return result;
}

}  // namespace fdeta::grid
