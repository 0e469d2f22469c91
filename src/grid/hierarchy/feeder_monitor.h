// Feeder-level hierarchical verification (ROADMAP item 3).
//
// Per-consumer detectors are structurally blind to collusion: k siblings
// under one transformer can each shave a sub-threshold sliver, and no
// individual score moves - but the joint residual they shift through the
// shared feeder is k slivers wide.  EnThM-style hierarchical verification
// closes the gap by scoring the *aggregate* demand at every internal node of
// the radial tree with the same machinery the per-consumer layer uses.
//
// For every scored node (internal nodes with at least `min_consumers`
// consumer descendants) the FeederMonitor keeps:
//
//   - a detector of the registry family, a row of the node fleet, fitted on
//     the node's aggregate training demand.  Reusing the consumers'
//     DetectorFleet arithmetic puts feeder scores on the SAME calibrated
//     [0, 1] scale as consumer scores,
//     so one threshold (1 - significance) reads across both layers;
//   - a physical under-report residual in kW that gates alerts (the
//     calibrated score alone would false-positive at the significance rate
//     on clean fleets).  The residual has two sources:
//       * balance mode (evaluate_week with the trusted `actual` dataset -
//         the pipeline path, where feeder balance meters measure real flow):
//         the node's NodeResiduals signed imbalance, actual minus reported,
//         which is exactly zero on clean fleets regardless of seasonal
//         drift; the gate is the meter-error bound balance_tolerance_kw;
//       * streaming mode (no ground truth - the OnlineMonitor path): a
//         rolling EWMA baseline of the node's weekly-mean aggregate minus
//         this week's mean, gated by max(residual_sigma * training
//         deviation, residual_floor_kw).
//
// A week alerts a node when BOTH the detector flags the aggregate AND the
// under-report residual clears its gate.  Flagged nodes are then localized
// deepest-first: sibling consumers whose weekly mean sits `collusion_share`
// below their reference (actual mean in balance mode, training mean in
// streaming mode) - yet who were NOT individually flagged - form the
// suspected colluding group.
//
// Determinism contract: aggregates are accumulated in ascending consumer
// index order and scored per node independently, so reports, events and
// checkpoint bytes are byte-identical for any shard x thread layout and
// identical between fit() and fit_streaming().
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

struct FeederConfig {
  /// Registered detector family scored per node (core/detector_registry.h).
  std::string detector = "kld";
  /// Knobs for every family; `detector_options.kld` holds the KLD
  /// histogram knobs (bins, significance, epsilon).
  core::DetectorOptions detector_options{};
  /// Internal nodes with fewer consumer descendants are not scored (a
  /// single-consumer "feeder" would just duplicate the per-consumer layer).
  std::size_t min_consumers = 2;
  /// Streaming-mode physical gate: a node alerts only when its under-report
  /// residual (rolling baseline minus this week's aggregate mean) exceeds
  /// max(residual_sigma * training-deviation, residual_floor_kw).
  double residual_sigma = 4.0;
  double residual_floor_kw = 1e-3;
  /// Balance-mode physical gate: with the trusted `actual` dataset in hand
  /// the residual is the node's signed balance imbalance (actual minus
  /// reported through the loss-adjusted tree walk), and a node alerts once
  /// it exceeds this meter-error bound (kW).
  double balance_tolerance_kw = 0.02;
  /// A consumer joins a collusion group when its weekly mean sits more than
  /// this fraction below its training mean (and it was not individually
  /// flagged - those are already localized by the per-consumer layer).
  double collusion_share = 0.02;
  /// Smallest sibling group reported as collusion.
  std::size_t min_group = 2;
  /// EWMA weight for the rolling baseline update on non-alerting weeks
  /// (alerting weeks never update the baseline: an attacker must not be able
  /// to walk the baseline down onto the shaved level).
  double baseline_beta = 0.125;
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
  /// The topology must outlive the monitor.  Consumer dense indices in the
  /// topology index the datasets/windows handed to fit/evaluate.
  explicit FeederMonitor(const grid::Topology& topology,
                         FeederConfig config = {});
  ~FeederMonitor();

  /// Fits every scored node's detector and baseline on the training span of
  /// `actual` (assumed attack-free, Section VIII-A).
  void fit(const meter::Dataset& actual, const meter::TrainTestSplit& split);

  /// As fit(), materialising one consumer series at a time via `source`
  /// (called serially, ascending index).  Bit-identical state to fit().
  void fit_streaming(
      std::size_t count,
      const std::function<meter::ConsumerSeries(std::size_t)>& source,
      const meter::TrainTestSplit& split);

  /// Scores week `week` of the reported dataset at every scored node
  /// (streaming mode: rolling-baseline residuals).  `consumer_flagged` (when
  /// non-empty: one byte per consumer, non-zero = the per-consumer layer
  /// flagged it this week) excludes already-localized consumers from
  /// collusion groups.  Emits feeder_alert_raised / collusion_suspected
  /// events in node order.  Updates rolling baselines.
  FeederReport evaluate_week(
      const meter::Dataset& reported, std::size_t week,
      std::span<const unsigned char> consumer_flagged = {});

  /// Balance-mode evaluation: as above, but the physical residual is the
  /// node's signed NodeResiduals imbalance between the trusted `actual` week
  /// and the `reported` week (zero on clean fleets by construction), gated
  /// by balance_tolerance_kw.  This is the pipeline path, where feeder
  /// balance meters measure real flow (paper eq. 5/6).
  FeederReport evaluate_week(
      const meter::Dataset& actual, const meter::Dataset& reported,
      std::size_t week, std::span<const unsigned char> consumer_flagged = {});

  /// Monitor-path evaluation over slot-aligned sliding windows: `week_of(i)`
  /// returns consumer i's current week vector (slot-of-week indexed, 336
  /// slots); `slot` stamps the report/events.  Same scoring, gating,
  /// localization and baseline update as evaluate_week.
  FeederReport evaluate_windows(
      const std::function<std::span<const Kw>(std::size_t)>& week_of,
      SlotIndex slot, std::span<const unsigned char> consumer_flagged = {});

  bool fitted() const { return fitted_; }
  const grid::Topology& topology() const { return *topology_; }
  const FeederConfig& config() const { return config_; }
  std::size_t scored_node_count() const;
  /// Scored node ids, ascending.
  std::vector<grid::NodeId> scored_nodes() const;

  /// Serializes the fitted per-node state (detectors, rolling baselines,
  /// deviations, consumer training means).  Symmetric with restore_state;
  /// requires fit() to have run.
  void save_state(persist::Encoder& enc) const;

  /// Restores save_state() bytes against the SAME topology (scored-node ids
  /// are validated) and hierarchy knobs; the detector family and options
  /// come from the checkpoint.  Throws DataError on any mismatch.
  /// Subsequent evaluations are bit-identical to the monitor that was saved.
  void restore_state(persist::Decoder& dec);

  /// Deterministic summary of the scored-node count and the hierarchy
  /// knobs (checkpoint cross-check; the detector fleet carries its own
  /// family and options).
  std::string config_fingerprint() const;

 private:
  struct NodeState;

  /// Resolves the scored nodes (ascending id) and their member consumer
  /// lists from the topology.
  void resolve_nodes();

  /// Shared core of the evaluate paths.  `actual_week_of` non-null selects
  /// balance mode (NodeResiduals imbalance gates, actual-vs-reported
  /// collusion deficits); null selects streaming mode (rolling baselines).
  FeederReport evaluate(
      const std::function<std::span<const Kw>(std::size_t)>& week_of,
      const std::function<std::span<const Kw>(std::size_t)>* actual_week_of,
      std::size_t week, SlotIndex slot,
      std::span<const unsigned char> consumer_flagged);

  /// Shared core of the two fit paths: `series_of(i)` is called serially in
  /// ascending consumer order (so per-node aggregate sums are bit-identical
  /// between fit() and fit_streaming()).
  void fit_impl(
      std::size_t count,
      const std::function<meter::ConsumerSeries(std::size_t)>& series_of,
      const meter::TrainTestSplit& split);

  const grid::Topology* topology_;  // never null
  FeederConfig config_;
  std::vector<NodeState> nodes_;              // ascending node id
  core::DetectorFleet fleet_;                 // one detector per node
  std::vector<double> consumer_train_mean_;   // per dense consumer index
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
