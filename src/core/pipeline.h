// The five-step F-DETA detection pipeline (Section VII):
//   (1) model each consumer's expected consumption,
//   (2) evaluate whether new readings are anomalous,
//   (3) classify anomalies: abnormally LOW readings mark a suspected
//       attacker (Proposition 1), abnormally HIGH readings a suspected
//       victim of a neighbor's theft (Proposition 2),
//   (4) consult external evidence to rule out false positives,
//   (5) investigate systematically via the grid topology's balance checks.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/consumer_model.h"
#include "core/evidence.h"
#include "grid/hierarchy/feeder_monitor.h"
#include "grid/investigate.h"
#include "grid/topology.h"
#include "meter/dataset.h"

namespace fdeta {
namespace obs {
class Counter;
class EventLog;
class Histogram;
class MetricsRegistry;
}  // namespace obs
}  // namespace fdeta

namespace fdeta::core {

enum class VerdictStatus : std::uint8_t {
  kNormal,
  kSuspectedAttacker,  ///< anomalous + abnormally low
  kSuspectedVictim,    ///< anomalous + abnormally high
  kSuspectedAnomaly,   ///< anomalous, direction unclear
  kExcused,            ///< anomalous but covered by external evidence
  /// Too few readings reached the head-end to judge the week: the KLD is
  /// never computed (a lossy week scored on imputed values looks exactly
  /// like an under-report attack), so loss cannot masquerade as theft.
  kInsufficientData,
};

const char* to_string(VerdictStatus status);

struct ConsumerVerdict {
  meter::ConsumerId id = 0;
  VerdictStatus status = VerdictStatus::kNormal;
  /// Scalar score / decision threshold of the configured detector family
  /// (the eq.-(12) divergence in bits for "kld"; other families report
  /// their own scalar, see core/detector_fleet.h).
  double kld_score = 0.0;
  double kld_threshold = 0.0;
  std::optional<EvidenceEvent> excuse;
  /// Slots of this week the head-end never received (only populated when
  /// evaluate_week is given a WeekCoverage; drives kInsufficientData).
  std::size_t missing_slots = 0;
  /// Per-bin KLD breakdown; populated only for non-normal verdicts when
  /// PipelineConfig::explain is set.
  std::optional<KldExplanation> explanation;
};

/// Per-consumer delivery coverage for one week, as reported by the AMI
/// head-end (see ami::CollectedReport::week_missing).  Consumers whose
/// missing fraction (of kSlotsPerWeek) exceeds
/// PipelineConfig::max_missing_fraction are not scored and receive
/// VerdictStatus::kInsufficientData.
struct WeekCoverage {
  /// missing_slots[i] = slots of the week consumer i never reported.
  std::vector<std::uint32_t> missing_slots;
};

struct PipelineConfig {
  meter::TrainTestSplit split{};
  /// Registered detector family run per consumer (core/detector_registry.h);
  /// "kld" is the paper's eq.-(12) detector.
  std::string detector = "kld";
  /// Knobs for every family; `detector_options.kld` holds the KLD
  /// histogram knobs (bins, significance, epsilon).
  DetectorOptions detector_options{};
  /// Coverage gate: when evaluate_week is given a WeekCoverage, a consumer
  /// whose missing-slot fraction for the week exceeds this threshold is
  /// returned as kInsufficientData (with an alert_excused event) instead of
  /// being scored on imputed values.
  double max_missing_fraction = 0.25;
  /// Parallelism cap for fit()/evaluate_week() on the shared pool
  /// (0 = full pool width, 1 = serial).
  std::size_t threads = 0;
  /// Telemetry sink; null = the process-wide obs::default_registry().
  /// Counters ("pipeline." prefix: consumers fitted, KLD threshold
  /// recomputations, weeks scored, verdicts by status, investigations) are
  /// deterministic under a fixed seed regardless of `threads`.
  obs::MetricsRegistry* metrics = nullptr;
  /// Attach a per-bin KLD explanation to every non-normal verdict.
  bool explain = false;
  /// Domain-event sink; null = the process-wide obs::default_event_log().
  /// Emits alert_raised / alert_excused per flagged consumer (in consumer
  /// index order, regardless of `threads`), model_restored on load_model(),
  /// and investigation_step during step 5.
  obs::EventLog* events = nullptr;
  /// Feeder-hierarchy layer (DESIGN.md §14): when set AND evaluate_week is
  /// given a topology, a hierarchy::FeederMonitor is lazily fitted on the
  /// training span and scores every internal node after step 5.  Feeder
  /// events are appended strictly AFTER the per-consumer and investigation
  /// events, so enabling the hierarchy never perturbs the existing log - it
  /// only adds feeder_alert_raised / collusion_suspected lines at the end.
  /// The feeder layer shares `threads`, `metrics` and `events`.
  bool hierarchy = false;
};

struct PipelineReport {
  std::vector<ConsumerVerdict> verdicts;                 // step 1-4 output
  std::optional<grid::InvestigationResult> investigation;  // step 5 output
  /// Feeder-hierarchy scores/collusion groups (PipelineConfig::hierarchy
  /// with a topology); per-consumer verdicts above are never affected.
  std::optional<hierarchy::FeederReport> feeder;

  std::vector<meter::ConsumerId> suspected_attackers() const;
  std::vector<meter::ConsumerId> suspected_victims() const;
};

/// Runs the pipeline over one week of the *reported* dataset.
///
/// `actual` is the ground-truth dataset (models are trained on its training
/// span, which is assumed attack-free per Section VIII-A); `reported` is the
/// possibly-compromised dataset; `week` is the absolute week index to judge.
/// If `topology` is provided, step 5 runs a Case-2 investigation over the
/// attacked week's average demands.
class FdetaPipeline {
 public:
  explicit FdetaPipeline(PipelineConfig config = {});

  /// Step 1: fit the consumer model on the training span of `actual`.
  void fit(const meter::Dataset& actual);

  /// Steps 2-5.  `coverage`, when provided, gates step 2: consumers whose
  /// missing-slot fraction exceeds config().max_missing_fraction get a
  /// kInsufficientData verdict and are never scored.  Throws DataError
  /// before judging anyone when consumer i of `actual` or `reported` is not
  /// the model's consumer i.
  PipelineReport evaluate_week(const meter::Dataset& actual,
                               const meter::Dataset& reported,
                               std::size_t week,
                               const EvidenceCalendar& calendar,
                               const grid::Topology* topology = nullptr,
                               const WeekCoverage* coverage = nullptr) const;

  /// Serializes the fitted state, the consumer model alone, as a checkpoint
  /// (persist/checkpoint.h), so a head-end can fit once offline and serving
  /// processes warm-start in milliseconds.  Requires fit() to have run.
  void save_model(std::ostream& out) const;

  /// Restores a save_model() checkpoint, replacing this pipeline's fit and
  /// the fit-related config (detector family and options, and the split
  /// {W, 0}, W the model's training weeks; `threads` and `metrics` keep
  /// their constructed values).
  /// evaluate_week() then yields verdicts bit-identical to the pipeline that
  /// was saved.  The detector fleet restores on the shared pool.  Throws
  /// DataError on a corrupted, truncated, or version-mismatched checkpoint.
  void load_model(std::istream& in);

  /// The active config (load_model overwrites the fit-related fields).
  const PipelineConfig& config() const { return config_; }

  /// The fitted or restored consumer model (null before either).
  const std::shared_ptr<const ConsumerModel>& model() const { return model_; }

  std::size_t consumer_count() const {
    return model_ ? model_->fleet.size() : 0;
  }

 private:
  /// Builds + fits the feeder layer on first hierarchy-enabled evaluation
  /// (deterministic: fitted on `actual`'s training span with the pipeline's
  /// split, so the lazy fit is a pure function of the evaluate inputs).
  void ensure_feeder(const grid::Topology& topology,
                     const meter::Dataset& actual) const;

  PipelineConfig config_;
  std::shared_ptr<const ConsumerModel> model_;  // shared, read-only
  /// Lazy feeder-hierarchy layer; scoring caches live per node, and the
  /// rolling baselines advance week over week (mutable: evaluate_week stays
  /// const for the per-consumer layer it reports on).
  mutable std::unique_ptr<hierarchy::FeederMonitor> feeder_;

  // Cached at construction; updates are lock-free (see obs/metrics.h) and
  // happen once per fit/evaluate call, outside the per-consumer hot loops.
  obs::Counter* consumers_fitted_ = nullptr;
  obs::Counter* consumers_restored_ = nullptr;
  obs::Counter* thresholds_recomputed_ = nullptr;
  obs::Counter* weeks_scored_ = nullptr;
  obs::Counter* verdicts_ = nullptr;
  obs::Counter* verdict_normal_ = nullptr;
  obs::Counter* verdict_attacker_ = nullptr;
  obs::Counter* verdict_victim_ = nullptr;
  obs::Counter* verdict_anomaly_ = nullptr;
  obs::Counter* verdict_excused_ = nullptr;
  obs::Counter* verdict_insufficient_ = nullptr;
  obs::Counter* coverage_missing_slots_ = nullptr;
  obs::Counter* investigations_ = nullptr;
  obs::Histogram* fit_seconds_ = nullptr;
  obs::Histogram* evaluate_seconds_ = nullptr;
  obs::EventLog* events_ = nullptr;  // never null after construction
};

}  // namespace fdeta::core
