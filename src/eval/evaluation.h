// The Section-VIII evaluation harness: false-data injection against every
// consumer, six detector rows x three attack realizations (the paper's four
// plus the isolation forest and the reduced-input KLD), Metric 1 (detection
// percentage) and Metric 2 (worst-case weekly theft while circumventing each
// detector).
//
// Protocol (per consumer, parallelised across consumers):
//  1. Fit all detectors on the 60-week training span.
//  2. The clean version of the attacked test week gives the false-positive
//     verdict per detector (Section VIII-E: an FP makes the detector "fail"
//     for that consumer and the attacker's gain is maximised).
//  3. Inject:
//       - 1B: 50 Integrated-ARIMA over-report vectors (+ the plain ARIMA
//             attack as the Metric-2 candidate against the ARIMA detector),
//       - 2A/2B: the same, under-reporting,
//       - 3A/3B: the Optimal Swap week (CI-repaired).
//  4. Metric 1 success = every injected vector flagged AND no FP.
//     Metric 2 gain = max gain among candidates evading the detector (all
//     candidates when the detector false-positives).
//  5. Aggregate: Metric 1 -> percentage of consumers; Metric 2 -> sum over
//     consumers (1B, all victims together) or max over consumers (2A/2B and
//     3A/3B, a single attacker).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "meter/dataset.h"
#include "meter/series.h"
#include "pricing/tariff.h"
#include "timeseries/arima.h"

namespace fdeta::core {

enum class DetectorKind : std::size_t {
  kArima = 0,
  kIntegratedArima = 1,
  kKld5 = 2,   ///< KLD detector at 5% significance
  kKld10 = 3,  ///< KLD detector at 10% significance
  kIsolationForest = 4,  ///< isolation forest over weekly features (5%)
  kKldLite = 5,          ///< reduced-input KLD, k selected slots (5%)
};
inline constexpr std::size_t kDetectorCount = 6;

enum class AttackKind : std::size_t {
  k1B = 0,    ///< Integrated ARIMA attack on a victim (over-report)
  k2A2B = 1,  ///< Integrated ARIMA attack by Mallory (under-report)
  k3A3B = 2,  ///< Optimal Swap attack
};
inline constexpr std::size_t kAttackKindCount = 3;

const char* to_string(DetectorKind kind);
const char* to_string(AttackKind kind);

struct EvaluationConfig {
  meter::TrainTestSplit split{};       // 60 train / 14 test
  std::size_t attack_vectors = 50;     // TND trials per consumer
  double z = 1.96;
  ts::ArimaOrder order{};
  std::size_t kld_bins = 10;
  std::size_t reduced_slots = 48;      // kKldLite: selected slots per week
  std::size_t attack_test_week = 0;    // which test week is attacked
  std::uint64_t seed = 7;
  std::size_t threads = 0;             // 0 = hardware concurrency
  double bound_slack = 0.02;           // Integrated detector bound slack
};

/// One consumer x detector x attack cell.
struct CellOutcome {
  bool all_detected = false;    ///< every injected vector flagged
  bool false_positive = false;  ///< clean week flagged
  bool success = false;         ///< all_detected && !false_positive
  KWh undetected_kwh = 0.0;     ///< Metric-2 energy contribution
  double undetected_profit = 0.0;  ///< Metric-2 dollar contribution
};

struct ConsumerEvaluation {
  meter::ConsumerId id = 0;
  bool skipped = false;  ///< degenerate series; excluded from aggregates
  std::array<std::array<CellOutcome, kAttackKindCount>, kDetectorCount> cells{};

  const CellOutcome& cell(DetectorKind d, AttackKind a) const {
    return cells[static_cast<std::size_t>(d)][static_cast<std::size_t>(a)];
  }
};

struct EvaluationResult {
  std::vector<ConsumerEvaluation> consumers;

  std::size_t evaluated_count() const;

  /// Metric 1: percentage of consumers for whom the detector successfully
  /// detected the attack (Table II).
  double metric1_percent(DetectorKind d, AttackKind a) const;

  /// Metric 2: worst-case energy stolen in one week while circumventing the
  /// detector (Table III "Stolen"): sum over consumers for 1B, max over
  /// consumers otherwise.
  KWh metric2_kwh(DetectorKind d, AttackKind a) const;

  /// Metric 2: the corresponding monetary gain (Table III "Profit").
  double metric2_profit(DetectorKind d, AttackKind a) const;
};

/// Runs the full evaluation over a dataset with the paper's TOU pricing.
EvaluationResult run_evaluation(const meter::Dataset& dataset,
                                const EvaluationConfig& config);

/// Evaluates a single consumer (exposed for tests and examples).
ConsumerEvaluation evaluate_consumer(const meter::ConsumerSeries& series,
                                     const EvaluationConfig& config);

}  // namespace fdeta::core
