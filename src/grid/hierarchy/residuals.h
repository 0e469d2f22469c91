// Per-node balance residuals over the radial tree (Section V-A, eq. 5).
//
// Every verification layer in the repo needs the same quantity: at each node
// N, the gap between the physical flow (eq. 4 over actual consumer demands)
// and the utility's reconstruction (eq. 4 over reported readings plus
// calculated losses).  NodeResiduals computes both walks once and exposes
// signed and absolute per-node accessors, so the balance checker, the Case
// 1/2 investigations, and the feeder-level hierarchy monitor all read from
// one residual tree instead of re-deriving it inline.
//
// Conservation holds by construction: a node's signed residual equals the
// sum of its children's signed residuals (additive power, eq. 4), up to the
// loss-leaf terms that node_demands derives from sibling flows.
#pragma once

#include <span>
#include <vector>

#include "grid/topology.h"

namespace fdeta::grid {

class NodeResiduals {
 public:
  /// Runs the two node_demands walks (physics over `actual`, reconstruction
  /// over `reported`) and stores one residual per node id.
  static NodeResiduals compute(const Topology& topology,
                               std::span<const Kw> actual,
                               std::span<const Kw> reported);

  std::size_t node_count() const { return actual_nodes_.size(); }

  /// Signed residual at `id`: actual - reported.  Positive means the subtree
  /// under-reports (theft, Proposition 1); negative means it over-reports.
  double signed_kw(NodeId id) const {
    return actual_nodes_[static_cast<std::size_t>(id)] -
           reported_nodes_[static_cast<std::size_t>(id)];
  }

  /// |actual - reported| at `id` - the eq. (5) check magnitude.
  double imbalance_kw(NodeId id) const;

  /// The eq. (5) balance check at `id`: true when the imbalance exceeds the
  /// metering tolerance.
  bool check_fails(NodeId id, double tolerance_kw) const {
    return imbalance_kw(id) > tolerance_kw;
  }

 private:
  std::vector<Kw> actual_nodes_;
  std::vector<Kw> reported_nodes_;
};

}  // namespace fdeta::grid
