// The balance check (Section V-A).
//
// At an internal node N with consumer descendants C and loss descendants L,
// utilities check eq. (5):
//
//   D'_N(t) == sum_{c in C} D'_c(t) + sum_{l in L} D_l(t)
//
// where D'_N is the (trusted) balance-meter reading, D'_c are the reported
// consumer readings, and losses are *calculated* from component specs, not
// reported.  A compromised balance meter instead reports whatever makes its
// own check pass, hiding theft in its subtree.
#pragma once

#include <span>
#include <unordered_set>
#include <vector>

#include "grid/topology.h"

namespace fdeta::grid {

/// W-event status per node (Section V-B): the result of a balance check.
enum class CheckStatus : std::uint8_t {
  kNotChecked,  ///< node has no balance meter (or is a leaf)
  kPassed,      ///< W false
  kFailed,      ///< W true
};

struct BalanceOutcome {
  std::vector<CheckStatus> status;  ///< per node id

  bool failed(NodeId id) const { return status[id] == CheckStatus::kFailed; }
  bool checked(NodeId id) const { return status[id] != CheckStatus::kNotChecked; }

  /// Node ids with W true.
  std::vector<NodeId> failing_nodes() const;
};

/// Runs the balance check at every metered internal node for a single time
/// period.
///
/// `actual` / `reported` are per-consumer demand vectors (dense index).
/// `compromised_meters` are internal nodes whose balance meter lies: it
/// reports the value that satisfies eq. (5), so its check passes regardless
/// of theft.  Losses are derived from the *actual* flows (the physics), while
/// the utility's loss estimate in eq. (5) is derived from reported flows -
/// the tolerance absorbs that gap plus metering error (the +/-0.5% accuracy
/// of [11]).  Every tolerance-taking check here and in investigate.h throws
/// InvalidArgument for a negative or non-finite tolerance: a negative one
/// fails every balanced node and accuses honest consumers.
BalanceOutcome run_balance_checks(
    const Topology& topology, std::span<const Kw> actual,
    std::span<const Kw> reported,
    const std::unordered_set<NodeId>& compromised_meters = {},
    double tolerance_kw = 1e-6);

/// The simplified check of eq. (6) at one node: sums of reported vs actual
/// consumer demand under `node` (assumes the node's meter is trusted).
bool simplified_balance_check(const Topology& topology, NodeId node,
                              std::span<const Kw> actual,
                              std::span<const Kw> reported,
                              double tolerance_kw = 1e-6);

/// The balance meters Mallory must compromise for her theft to stay hidden
/// from every metered ancestor (Section VI-A): all metered internal nodes
/// on the path from her leaf to the root, excluding any in `trusted` (which
/// she cannot touch - e.g. the root meter co-located with the control
/// center).  "The tree depths ... range from 5 to 135"; for a balanced tree
/// this is O(log N), for a linear feeder O(N).
std::vector<NodeId> meters_to_compromise(
    const Topology& topology, std::size_t consumer_index,
    const std::unordered_set<NodeId>& trusted = {});

/// Section V-B consistency rules over a set of W events.  Returns nodes for
/// which an alarm should be raised for meter investigation:
/// (a) W true at a node but false at its metered parent, or
/// (b) W true at a parent whose metered internal children all have W false.
std::vector<NodeId> inconsistent_meter_alarms(const Topology& topology,
                                              const BalanceOutcome& outcome);

}  // namespace fdeta::grid
