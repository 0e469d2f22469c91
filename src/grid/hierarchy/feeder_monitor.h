// Feeder-level hierarchical verification (DESIGN.md §14).
//
// Per-consumer detectors are structurally blind to collusion: k siblings
// under one transformer can each shave a sub-threshold sliver, and no
// individual score moves - but the joint residual they shift through the
// shared feeder is k slivers wide.  EnThM-style hierarchical verification
// closes the gap by scoring the *aggregate* demand at every internal node of
// the radial tree with the same machinery the per-consumer layer uses.
//
// For every scored node (internal nodes with at least two consumer
// descendants) the FeederMonitor keeps:
//
//   - a "kld" detector at default DetectorOptions, a row of the node fleet,
//     fitted on the node's aggregate training demand.  Reusing the
//     consumers' DetectorFleet arithmetic puts feeder scores on the SAME
//     calibrated [0, 1] scale as consumer scores, so at the default
//     significance one threshold (1 - significance) reads across both
//     layers;
//   - a physical under-report residual in kW that gates alerts (the
//     calibrated score alone would false-positive at the significance rate
//     on clean fleets).  The residual has two sources:
//       * balance mode (evaluate_week with the trusted actual weekly means
//         - the pipeline path, where feeder balance meters measure real flow):
//         the node's NodeResiduals signed imbalance, actual minus reported,
//         which is exactly zero on clean fleets regardless of seasonal
//         drift; the gate is a fixed meter-error bound;
//       * streaming mode (evaluate_windows, no ground truth - the
//         OnlineMonitor path): a rolling EWMA baseline of the node's
//         weekly-mean aggregate minus this week's mean, gated by a multiple
//         of the node's training deviation with an absolute floor.
//
// A week alerts a node when BOTH the detector flags the aggregate AND the
// under-report residual clears its gate.  Flagged nodes are then localized
// deepest-first: sibling consumers whose weekly mean sits a fixed share of
// their training mean below their reference (actual mean in balance mode,
// training mean in streaming mode) - yet who were NOT individually flagged -
// form the suspected colluding group.  The training means are the owner's
// (core/consumer_model.h), passed to each evaluation.  The gates, the share
// and the baseline weight are constants (feeder_monitor.cpp).
//
// Aggregates are exact: each reading is rounded once to a fixed quantum
// (2^-19 kW) and summed in 64-bit integers.  One post-order pass per call
// (fit and both evaluate paths) sums each scored node's row from the
// consumers and the finished rows of its subtree, reading each
// consumer-week once (O(consumers + scored nodes) week-adds).  The pass
// runs in chunks of whole subtrees, one pool task each, then serially over
// the few nodes above the chunk roots.  A row lives only until its scored
// parent has added it, so a task holds about depth x (fan-out - 1) rows,
// plus one row per chunk root kept for the serial pass, never one per
// scored node.
//
// Determinism contract: integer sums do not depend on their order or on
// the chunking, and nodes are scored independently into fixed slots, so
// reports, events and checkpoint bytes are byte-identical for any shard x
// thread layout and consumer numbering, and whatever series source the fit
// reads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detector_fleet.h"
#include "grid/topology.h"
#include "grid/tree_index.h"
#include "meter/dataset.h"

namespace fdeta {
namespace obs {
class Counter;
class EventLog;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs
namespace persist {
class Decoder;
class Encoder;
}  // namespace persist
}  // namespace fdeta

namespace fdeta::hierarchy {

/// What a FeederMonitor takes from its owner (the pipeline or the monitor).
struct FeederConfig {
  /// Parallelism cap on the shared pool (0 = full width, 1 = serial).
  std::size_t threads = 0;
  /// Telemetry sink ("hierarchy." prefix); null = obs::default_registry().
  obs::MetricsRegistry* metrics = nullptr;
  /// Domain-event sink (feeder_alert_raised / collusion_suspected); null =
  /// the process-wide obs::default_event_log().
  obs::EventLog* events = nullptr;
};

/// One scored node's result for one week.
struct FeederNodeScore {
  grid::NodeId node = grid::kNoNode;
  int depth = 0;
  std::size_t consumers = 0;    ///< consumer descendants aggregated
  double score = 0.0;           ///< calibrated, [0, 1]
  double threshold = 0.0;       ///< uniform 1 - significance
  /// Under-report residual (kW): the signed balance imbalance in balance
  /// mode, rolling baseline minus the weekly aggregate mean in streaming
  /// mode.  Positive = the node reported less than expected.
  double residual_kw = 0.0;
  double residual_gate_kw = 0.0;  ///< the residual the alert gate required
  bool flagged = false;
};

/// A localized group of sibling consumers suspected of coordinated
/// under-reporting below their individual thresholds.
struct CollusionGroup {
  grid::NodeId node = grid::kNoNode;  ///< deepest flagged node localizing it
  double residual_kw = 0.0;           ///< the node's under-report residual
  std::vector<std::size_t> consumers; ///< dense indices, ascending
};

struct FeederReport {
  std::size_t week = 0;  ///< absolute week index (evaluate_week path)
  SlotIndex slot = 0;    ///< absolute slot of evaluation (monitor path)
  std::vector<FeederNodeScore> nodes;     ///< scored nodes, ascending id
  std::vector<CollusionGroup> collusion;  ///< deepest-first localization

  std::size_t alert_count() const;
};

/// Fixed-format (%.17g) single-line-per-node rendering, for byte-equality
/// assertions across shard x thread layouts and for CLI artifacts.
std::string to_text(const FeederReport& report);

class FeederMonitor {
 public:
  /// The topology must outlive the monitor and hold at most 2^24 consumers
  /// (the integer sums' bound).  Consumer dense indices in the topology
  /// index the datasets/windows handed to fit/evaluate.
  explicit FeederMonitor(const grid::Topology& topology,
                         FeederConfig config = {});
  ~FeederMonitor();

  /// Fits every scored node's detector and baseline on the training span of
  /// `actual` (assumed attack-free, Section VIII-A), or of the `count`
  /// series `source` yields, each fetched once from a pool task.
  void fit(const meter::Dataset& actual, const meter::TrainTestSplit& split);
  void fit(std::size_t count, const meter::SeriesSource& source,
           const meter::TrainTestSplit& split);

  /// Balance-mode evaluation: scores week `week` of the reported dataset at
  /// every scored node, the physical residual being the node's signed
  /// NodeResiduals imbalance between the trusted actual demand (`actual_mean`:
  /// each consumer's mean over the same week) and the reported week (zero on
  /// clean fleets by construction), gated by a fixed meter-error bound.  This
  /// is the pipeline path, where feeder balance meters measure real flow
  /// (paper eq. 5/6).  `train_mean` holds each consumer's training mean.
  /// `consumer_flagged` (when non-empty: one byte per consumer, non-zero =
  /// the per-consumer layer flagged it this week) excludes
  /// already-localized consumers from collusion groups.  Emits
  /// feeder_alert_raised / collusion_suspected events in node order.
  /// Updates rolling baselines.  A reported reading that is not finite or
  /// exceeds kMaxPlausibleKw throws DataError before any state moves (as
  /// does one in fit()'s training span or in an evaluate_windows() window).
  FeederReport evaluate_week(
      std::span<const double> actual_mean, const meter::Dataset& reported,
      std::size_t week, std::span<const double> train_mean,
      std::span<const unsigned char> consumer_flagged = {});

  /// Streaming-mode evaluation over the monitor's slot-aligned sliding
  /// windows: `week_of(i)` returns consumer i's current week vector
  /// (slot-of-week indexed, 336 slots; another length throws
  /// InvalidArgument); `slot` stamps the report/events.
  /// The residual is the rolling-baseline one; `train_mean`, scoring,
  /// localization, events and the baseline update are evaluate_week's.
  FeederReport evaluate_windows(
      const std::function<std::span<const Kw>(std::size_t)>& week_of,
      std::span<const double> train_mean, SlotIndex slot,
      std::span<const unsigned char> consumer_flagged = {});

  bool fitted() const { return fitted_; }
  const grid::Topology& topology() const { return *topology_; }
  std::size_t scored_node_count() const;

  /// Serializes the fitted per-node state (detectors, rolling baselines,
  /// deviations) and the consumer count.  Symmetric with restore_state;
  /// requires fit() to have run.
  void save_state(persist::Encoder& enc) const;

  /// Restores save_state() bytes against the SAME topology (the scored-node
  /// count and ids and the consumer count are validated); the detector
  /// family and options come from the checkpoint.  Throws DataError on any
  /// mismatch or non-finite state.  Subsequent evaluations are bit-identical
  /// to the monitor that was saved.
  void restore_state(persist::Decoder& dec);

 private:
  struct NodeState;

  /// Resolves the scored nodes (ascending id) and the chunk roots of the
  /// post-order pass, in O(nodes).
  void resolve_nodes();

  /// The post-order pass: sums every scored node's row of `width` quanta
  /// (what `add_consumer(i, row)` adds for each consumer i of its subtree)
  /// and hands it to `visit(n, row)`, n being the nodes_ index.  Chunk
  /// roots' subtrees run as one pool task each, then one serial scan
  /// finishes the nodes above them.  Each callback runs once per consumer
  /// or scored node, from pool tasks, and a row is valid only during its
  /// visit.
  void sum_post_order(
      std::size_t width,
      const std::function<void(std::size_t, std::int64_t*)>& add_consumer,
      const std::function<void(std::size_t, const std::int64_t*)>& visit)
      const;

  /// Shared core of the evaluate paths.  A non-empty `actual_mean` selects
  /// balance mode (NodeResiduals imbalance gates, actual-vs-reported
  /// collusion deficits); empty selects streaming mode (rolling baselines).
  FeederReport evaluate(
      const std::function<std::span<const Kw>(std::size_t)>& week_of,
      std::span<const double> actual_mean, std::span<const double> train_mean,
      std::size_t week, SlotIndex slot,
      std::span<const unsigned char> consumer_flagged);

  const grid::Topology* topology_;  // never null
  FeederConfig config_;
  grid::TreeIndex index_;                     // of *topology_
  std::vector<NodeState> nodes_;              // ascending node id
  /// nodes_ index of each tree node (by id); kUnscored for the rest.
  std::vector<std::size_t> scored_;
  /// The post-order pass's chunk roots, in pre-order: the highest scored
  /// nodes holding at most consumers / (kChunksPerWorker x the pool width
  /// for config_.threads) consumers, rounded up.
  std::vector<grid::NodeId> chunk_roots_;
  core::DetectorFleet fleet_;                 // one detector per node
  bool fitted_ = false;

  // Cached at construction; updates are lock-free (see obs/metrics.h).
  obs::Counter* weeks_evaluated_ = nullptr;
  obs::Counter* alerts_total_ = nullptr;
  obs::Counter* collusion_groups_total_ = nullptr;
  obs::Gauge* alerts_gauge_ = nullptr;
  obs::Gauge* collusion_gauge_ = nullptr;
  obs::Histogram* evaluate_seconds_ = nullptr;
  obs::EventLog* events_ = nullptr;  // never null after construction
};

}  // namespace fdeta::hierarchy
