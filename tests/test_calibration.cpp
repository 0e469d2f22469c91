// The score-calibration contract: every registered family reports
// score_week() as a calibrated anomaly quantile in [0,1] with the uniform
// decision threshold 1 - significance, while flag decisions remain exactly
// the family-native raw comparison.  Covers the calibrated_score map itself
// (monotonicity, flag equivalence, empty and infinite inputs, and its
// independence of the reference's order) and the checkpoint round trip of
// the calibration state.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/detector_fleet.h"
#include "core/detector_registry.h"
#include "persist/binary_io.h"
#include "tests/attack_test_helpers.h"

namespace fdeta::core {
namespace {

// ---------------------------------------------------------------------------
// calibrated_score in isolation.

/// calibrated_score over a fixed reference, threshold and significance.
struct Calibration {
  std::vector<double> reference;
  double raw_threshold;
  double significance;
  double calibrate(double raw) const {
    return calibrated_score(reference, raw_threshold, significance, raw);
  }
};

TEST(ScoreCalibration, ThresholdMapsToBaseAndReferenceSpansUnitInterval) {
  const Calibration cal{
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, 0.9, 0.05};
  // At or below the raw threshold the calibrated score stays at or below
  // the decision threshold; strictly above it lands strictly above.
  EXPECT_LE(cal.calibrate(0.9), 0.95);
  EXPECT_GT(cal.calibrate(0.91), 0.95);
  EXPECT_LE(cal.calibrate(0.91), 1.0);
  // The reference minimum maps to the bottom of the scale.
  EXPECT_DOUBLE_EQ(cal.calibrate(0.1), 0.0);
  EXPECT_DOUBLE_EQ(cal.calibrate(-5.0), 0.0);
  // Far beyond the reference maximum saturates at 1.
  EXPECT_DOUBLE_EQ(cal.calibrate(100.0), 1.0);
}

TEST(ScoreCalibration, MonotoneInRawScore) {
  const Calibration cal{{0.3, 1.1, 1.2, 2.0, 2.4, 3.3, 3.4, 4.1, 5.0, 7.5},
                        4.5,
                        0.05};
  double prev = -std::numeric_limits<double>::infinity();
  double prev_cal = 0.0;
  for (double raw = -1.0; raw <= 9.0; raw += 0.01) {
    const double c = cal.calibrate(raw);
    EXPECT_GE(c, 0.0) << "raw " << raw;
    EXPECT_LE(c, 1.0) << "raw " << raw;
    if (prev > -std::numeric_limits<double>::infinity()) {
      EXPECT_GE(c, prev_cal) << "calibrate not monotone at raw " << raw;
    }
    prev = raw;
    prev_cal = c;
  }
}

TEST(ScoreCalibration, FlagEquivalenceIsExactAtTheThreshold) {
  const Calibration cal{{1.0, 2.0, 3.0, 4.0, 5.0}, 3.5, 0.10};
  const double decision = 0.90;
  // raw > raw_threshold  <=>  calibrated > decision threshold, including
  // exactly-at-threshold and the smallest representable step above it.
  EXPECT_LE(cal.calibrate(3.5), decision);
  const double just_above = std::nextafter(3.5, 4.0);
  EXPECT_GT(cal.calibrate(just_above), decision);
  for (double raw : {-2.0, 0.0, 1.0, 3.0, 3.49999, 3.5, 3.6, 5.0, 50.0}) {
    EXPECT_EQ(raw > 3.5, cal.calibrate(raw) > decision) << "raw " << raw;
  }
}

TEST(ScoreCalibration, RejectsEmptyReference) {
  // Every family fits or restores a non-empty training reference, so an
  // empty one is a caller bug, never a degraded map.
  EXPECT_THROW(calibrated_score({}, 0.0, 0.05, 1.0), InvalidArgument);
}

TEST(ScoreCalibration, NanRawScorePropagates) {
  const Calibration cal{{1.0, 2.0, 3.0}, 2.5, 0.05};
  EXPECT_TRUE(std::isnan(cal.calibrate(std::nan(""))));
  // Infinite raw scores land on the segment extremes, never on NaN.
  EXPECT_DOUBLE_EQ(
      cal.calibrate(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_DOUBLE_EQ(
      cal.calibrate(-std::numeric_limits<double>::infinity()), 0.0);
}

// The calibration spelled out over a SORTED reference: the position of x
// is the left inverse of quantile_sorted through upper_bound.
double sorted_position(const std::vector<double>& r, double x) {
  if (x <= r.front()) return 0.0;
  if (x >= r.back()) return 1.0;
  const auto j = static_cast<std::size_t>(
      std::upper_bound(r.begin(), r.end(), x) - r.begin() - 1);
  return (static_cast<double>(j) + (x - r[j]) / (r[j + 1] - r[j])) /
         static_cast<double>(r.size() - 1);
}

double sorted_calibrate(const std::vector<double>& r, double threshold,
                        double sig, double raw) {
  if (std::isnan(raw)) return raw;
  const double at = sorted_position(r, threshold);
  if (raw > threshold) {
    const double frac =
        at >= 1.0 ? 1.0 : (sorted_position(r, raw) - at) / (1.0 - at);
    return std::min(1.0,
                    1.0 - sig + sig * std::min(1.0, std::max(frac, 1e-9)));
  }
  if (at <= 0.0) return 0.0;
  return (1.0 - sig) * std::min(1.0, sorted_position(r, raw) / at);
}

// calibrated_score reads the reference in fit order, in one pass, and lands
// on exactly the bits of the sorted-reference map: for a shuffled reference
// with ties and both signed zeros, at every threshold, for raw scores at,
// next to and between the reference values and at +-infinity.
TEST(ScoreCalibration, FitOrderPassMatchesTheSortedReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> fit_order{0.25, -0.0, 2.0, 0.0, -1.5, 0.25, 0.0};
  std::vector<double> sorted = fit_order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> raws{-inf, -2.0, inf, 5.0};
  for (const double r : sorted) {
    raws.insert(raws.end(),
                {r, std::nextafter(r, -inf), std::nextafter(r, inf), r + 0.1});
  }
  for (const double threshold : {-1.5, -0.0, 0.1, 0.25, 2.0, 3.0}) {
    for (const double raw : raws) {
      const double want = sorted_calibrate(sorted, threshold, 0.05, raw);
      const double got = calibrated_score(fit_order, threshold, 0.05, raw);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "threshold " << threshold << " raw " << raw << ": " << got
          << " vs " << want;
    }
  }
  // A constant reference.
  const std::vector<double> flat(4, 0.5);
  for (const double raw : {0.0, 0.5, 0.75}) {
    EXPECT_EQ(calibrated_score(flat, 0.5, 0.10, raw),
              sorted_calibrate(flat, 0.5, 0.10, raw))
        << raw;
  }
}

// ---------------------------------------------------------------------------
// The calibrated contract, held against every registered family.

class CalibrationContract : public ::testing::TestWithParam<std::string_view> {
 protected:
  std::unique_ptr<ScoringDetector> make() const {
    return make_detector(GetParam(), {});
  }

  /// The checkpoint block of `fleet`.
  static std::string block(const DetectorFleet& fleet) {
    persist::Encoder enc;
    fleet.save(enc);
    return enc.bytes();
  }
};

// score_week lands on the quantile scale and decision_threshold is the
// uniform 1 - significance regardless of the family's native scale.
TEST_P(CalibrationContract, ScoresAreQuantilesWithUniformThreshold) {
  const auto f = testutil::make_fixture(2026);
  auto d = make();
  d->fit(f.train());
  EXPECT_DOUBLE_EQ(d->decision_threshold(), 0.95);  // default significance

  for (std::size_t w = 0; w < 4; ++w) {
    const auto week = f.split.test_week(f.series, w);
    const double score = d->score_week(week);
    EXPECT_GE(score, 0.0) << "week " << w;
    EXPECT_LE(score, 1.0) << "week " << w;
  }
}

// flag_week is the raw-domain comparison, and the calibrated comparison
// agrees with it bit-for-bit on clean AND attacked weeks.
TEST_P(CalibrationContract, CalibratedFlagMatchesRawFlag) {
  const auto f = testutil::make_fixture(555);
  auto d = make();
  d->fit(f.train());

  std::vector<std::vector<Kw>> weeks;
  weeks.emplace_back(f.clean_week().begin(), f.clean_week().end());
  for (const double factor : {0.25, 0.5, 2.0}) {
    auto attacked = weeks.front();
    for (auto& v : attacked) v *= factor;
    weeks.push_back(std::move(attacked));
  }
  for (std::size_t i = 0; i < weeks.size(); ++i) {
    const bool flagged = d->flag_week(weeks[i]);
    EXPECT_EQ(flagged, d->score_week(weeks[i]) > d->decision_threshold())
        << "week variant " << i;
    EXPECT_EQ(flagged,
              d->raw_score_week(weeks[i]) > d->raw_decision_threshold())
        << "week variant " << i;
  }
}

// The family's calibration map itself is monotone over the raw score axis -
// a higher family-native score can never read as a lower anomaly quantile.
TEST_P(CalibrationContract, CalibrationMonotoneOverRawAxis) {
  const auto f = testutil::make_fixture(808);
  auto d = make();
  d->fit(f.train());
  const double lo = d->raw_decision_threshold() - 2.0;
  const double hi = d->raw_decision_threshold() + 2.0;
  double prev = d->calibrate(lo);
  for (double raw = lo; raw <= hi; raw += 1e-3) {
    const double c = d->calibrate(raw);
    EXPECT_GE(c, prev) << "raw " << raw;
    prev = c;
  }
}

// explain_week carries both scales coherently: the calibrated header equals
// score_week/decision_threshold and the raw header feeds the calibration.
TEST_P(CalibrationContract, ExplanationCarriesBothScales) {
  const auto f = testutil::make_fixture(321);
  auto d = make();
  d->fit(f.train());
  std::vector<Kw> attacked(f.clean_week().begin(), f.clean_week().end());
  for (auto& v : attacked) v *= 0.25;

  const auto explanation = d->explain_week(attacked);
  EXPECT_EQ(explanation.score, d->score_week(attacked));
  EXPECT_EQ(explanation.threshold, d->decision_threshold());
  EXPECT_EQ(explanation.raw_score, d->raw_score_week(attacked));
  EXPECT_EQ(explanation.raw_threshold, d->raw_decision_threshold());
  EXPECT_EQ(explanation.score, d->calibrate(explanation.raw_score));
}

// Calibration state survives the checkpoint round trip: save -> restore ->
// save is byte-stable and the restored detector's CALIBRATED scores (not
// just the raw ones) are bit-identical.
TEST_P(CalibrationContract, SaveRestoreSavePreservesCalibratedScores) {
  const auto f = testutil::make_fixture(90210);
  DetectorFleet original(std::string(GetParam()), {}, 1,
                         f.split.train_weeks);
  original.fit(0, f.train());
  const std::string bytes = block(original);

  persist::Decoder dec(bytes);
  const DetectorFleet restored = DetectorFleet::restore(dec, 0);
  dec.require_exhausted("calibration contract block");

  EXPECT_EQ(block(restored), bytes);
  EXPECT_EQ(restored.decision_threshold(), original.decision_threshold());
  for (std::size_t w = 0; w < 4; ++w) {
    const auto week = f.split.test_week(f.series, w);
    EXPECT_EQ(restored.score_week(0, week), original.score_week(0, week))
        << "week " << w;
  }
}

std::string calibration_name(
    const ::testing::TestParamInfo<std::string_view>& info) {
  std::string name(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, CalibrationContract,
                         ::testing::ValuesIn(registered_detector_names()),
                         calibration_name);

}  // namespace
}  // namespace fdeta::core
