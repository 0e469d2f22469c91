// The count contract of every registered family (detector_plugin.h): a week
// is seen only through its per-bin counts, so a window counted once and
// kept current one reading at a time must score bit-identically to
// raw_score_week of the same window - for every family, every binning
// branch of the count step, and both out-of-support rules.  The KldCountStep
// cases pin that rule itself on a hand-built one-member fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/conditioned_kld_detector.h"
#include "core/detector_registry.h"
#include "core/kld_detector.h"
#include "datagen/generator.h"
#include "persist/binary_io.h"
#include "stats/histogram.h"

namespace fdeta::core {
namespace {

constexpr std::size_t kWeek = kSlotsPerWeek;

// A one-member kld fleet of ten unit-width bins over [0, 10] and a uniform
// baseline, restored from a hand-built checkpoint block.
DetectorFleet unit_fleet(bool exclude_out_of_support) {
  const KldDetectorConfig config;
  std::vector<double> edges(11);
  std::iota(edges.begin(), edges.end(), 0.0);
  persist::Encoder enc;
  enc.u64(1);  // members
  enc.str("kld");
  enc.u64(config.bins);
  enc.f64(config.significance);
  enc.f64(config.epsilon);
  enc.u8(exclude_out_of_support ? 1 : 0);
  enc.u32_array({});  // no calendar
  enc.u64(1);         // training weeks
  enc.f64_array(edges);
  enc.f64_array(std::vector<double>(10, 0.1));
  enc.f64_array(std::vector<double>{0.1});  // K_i
  enc.f64(0.5);                             // threshold
  persist::Decoder dec(enc.bytes());
  DetectorFleet fleet = DetectorFleet::restore(dec, 0);
  dec.require_exhausted("unit fleet");
  return fleet;
}

std::vector<std::uint16_t> counted(const DetectorFleet& fleet,
                                   const std::vector<double>& sample) {
  std::vector<std::uint16_t> counts(fleet.count_words());
  fleet.count_week(0, sample, 0, counts);
  return counts;
}

std::vector<double> week_mass(const DetectorFleet& fleet,
                              const std::vector<double>& sample) {
  std::vector<double> p;
  for (const KldBinContribution& bin :
       fleet.raw_explain_week(0, sample).bins) {
    p.push_back(bin.p);
  }
  return p;
}

/// The plain histogram probabilities of `sample` over the fleet's edges.
std::vector<double> clamped_mass(const DetectorFleet& fleet,
                                 const std::vector<double>& sample) {
  const stats::Histogram plain({fleet.edges(0).begin(), fleet.edges(0).end()});
  return plain.probabilities(sample);
}

TEST(KldCountStep, ExcludesOutOfSupportMass) {
  const DetectorFleet fleet = unit_fleet(true);
  const std::vector<double> sample{-3.0, -0.5, 0.5, 0.5, 5.5, 10.0, 12.0};
  const auto counts = counted(fleet, sample);
  ASSERT_EQ(counts.size(), 12u);
  // The B bins, then the readings below and above the support.
  EXPECT_EQ(counts[10], 2u);
  EXPECT_EQ(counts[11], 1u);
  // The out-of-support values must NOT surface as outer-bin counts: bin 0
  // holds only the two genuine 0.5 readings, the last bin only the 10.0.
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[5], 1u);
  EXPECT_EQ(counts[9], 1u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end() - 2, 0u), 4u);

  // Without exclusion the same counts clamp into the outer bins,
  // reproducing the plain histogram probabilities bit for bit.
  const DetectorFleet clamping = unit_fleet(false);
  const auto p = week_mass(clamping, sample);
  const auto legacy = clamped_mass(clamping, sample);
  ASSERT_EQ(p.size(), legacy.size());
  for (std::size_t j = 0; j < p.size(); ++j) EXPECT_EQ(p[j], legacy[j]) << j;
  EXPECT_EQ(p[0], 4.0 / 7.0);  // the clamp piles the underflow into bin 0
}

TEST(KldCountStep, NormalisesOverInSupportMass) {
  const std::vector<double> sample{-3.0, 0.5, 0.5, 5.5, 99.0};
  const DetectorFleet fleet = unit_fleet(true);
  const auto p = week_mass(fleet, sample);
  // Normalised over the 3 in-support values, not the 5-element sample.
  EXPECT_DOUBLE_EQ(p[0], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p[5], 1.0 / 3.0);
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-12);

  const DetectorFleet clamping = unit_fleet(false);
  const auto clamped = week_mass(clamping, sample);
  const auto legacy = clamped_mass(clamping, sample);
  for (std::size_t j = 0; j < clamped.size(); ++j) {
    EXPECT_EQ(clamped[j], legacy[j]) << j;
  }
}

TEST(KldCountStep, AllOutOfSupportFallsBackToClamping) {
  // Every value outside the support: there is no in-support mass to
  // normalise over, so the score falls back to clamping - the detector sees
  // a maximally anomalous week instead of a divide-by-zero - while the
  // counts still show that the fallback fired (no in-support reading).
  const DetectorFleet fleet = unit_fleet(true);
  const std::vector<double> sample{-5.0, -1.0, 11.0, 40.0};
  const auto counts = counted(fleet, sample);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end() - 2, 0u), 0u);
  EXPECT_EQ(counts[10], 2u);
  EXPECT_EQ(counts[11], 2u);
  const auto p = week_mass(fleet, sample);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[9], 0.5);
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-12);
  EXPECT_TRUE(std::isfinite(fleet.raw_score_counts(0, counts)));
}

TEST(KldCountStep, ValidatesCountSpan) {
  const DetectorFleet fleet = unit_fleet(true);
  const std::vector<double> sample{0.5};
  std::vector<std::uint16_t> wrong(fleet.count_words() - 1);
  EXPECT_THROW(fleet.count_week(0, sample, 0, wrong), InvalidArgument);
  EXPECT_THROW(fleet.raw_score_counts(0, wrong), InvalidArgument);
  // Counts with no reading in them have no distribution to score.
  const std::vector<std::uint16_t> empty(fleet.count_words(), 0);
  EXPECT_THROW(fleet.raw_score_counts(0, empty), InvalidArgument);
  // A u16 count word holds at most 65535 readings.
  std::vector<std::uint16_t> right(fleet.count_words());
  EXPECT_THROW(fleet.count_week(0, std::vector<double>(65536, 0.5), 0, right),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// The contract, against every registered family.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The frozen edges of every histogram a fitted member scores with.
std::vector<std::vector<double>> member_edges(const ScoringDetector& detector,
                                              std::span<const Kw> week) {
  std::vector<KldExplanation> parts;
  if (const auto* ckld =
          dynamic_cast<const ConditionedKldDetector*>(&detector)) {
    parts = ckld->explain(week);
  } else {
    parts.push_back(detector.explain_week(week));
  }
  std::vector<std::vector<double>> out;
  for (const KldExplanation& part : parts) {
    std::vector<double> edges;
    for (const KldBinContribution& bin : part.bins) edges.push_back(bin.lower);
    edges.push_back(part.bins.back().upper);
    out.push_back(std::move(edges));
  }
  return out;
}

// Values hitting every branch of the count step, for each histogram: the
// bottom edge, a bin interior, an interior edge and the top edge (inside
// the support), just below and well below it, just above and well above
// it, and NaN.
std::vector<double> branch_values(
    const std::vector<std::vector<double>>& histograms) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> out{nan};
  for (const std::vector<double>& e : histograms) {
    const double lo = e.front();
    const double hi = e.back();
    out.insert(out.end(), {lo, 0.5 * (e[1] + e[2]), e[e.size() / 2], hi,
                           std::nextafter(lo, -inf), lo - 1.0,
                           std::nextafter(hi, inf), hi + 5.0});
  }
  return out;
}

class CountContract : public ::testing::TestWithParam<std::string_view> {};

// Starts from a fitted member's counted window and replaces one position at
// a time; after every replacement the counted raw score equals
// raw_score_week of the same window bit for bit, read as a week starting at
// slot-of-week 0 and as one starting at slot-of-week 5.
TEST_P(CountContract, CountedScoreMatchesWeekScoreAfterEveryReplacement) {
  const auto data = datagen::small_dataset(1, 11, 4711);
  const std::span<const Kw> series = data.consumer(0).readings;
  for (const bool exclude : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "exclude_out_of_support=" << exclude);
    DetectorOptions options;
    options.kld = {.bins = 10, .significance = 0.10};
    options.kld.exclude_out_of_support = exclude;
    const std::unique_ptr<ScoringDetector> detector =
        make_detector(GetParam(), options);
    detector->fit(series.first(10 * kWeek));

    // window[s] holds slot-of-week s, as in OnlineMonitor.
    std::vector<Kw> window(series.begin() + 10 * kWeek, series.end());
    std::vector<std::uint16_t> counts(detector->count_words(), 0);
    ASSERT_GT(counts.size(), 0u);
    for (std::size_t s = 0; s < kWeek; ++s) {
      detector->count_reading(counts, s, window[s], +1);
    }
    std::vector<Kw> rotated(kWeek);
    const auto matches = [&]() -> ::testing::AssertionResult {
      const double counted_score = detector->raw_score_counts(counts);
      const double at_zero = detector->raw_score_week(window, 0);
      for (std::size_t i = 0; i < kWeek; ++i) {
        rotated[i] = window[(5 + i) % kWeek];
      }
      const double at_five = detector->raw_score_week(rotated, 5);
      if (same_bits(counted_score, at_zero) &&
          same_bits(counted_score, at_five)) {
        return ::testing::AssertionSuccess();
      }
      return ::testing::AssertionFailure()
             << "counted " << counted_score << " vs week " << at_zero
             << " (first_slot 0), " << at_five << " (first_slot 5)";
    };
    const auto replace = [&](std::size_t s, Kw value) {
      detector->count_reading(counts, s, window[s], -1);
      detector->count_reading(counts, s, value, +1);
      window[s] = value;
    };
    ASSERT_TRUE(matches());

    // Mixed windows: every round places each branch value somewhere, and
    // over the rounds every position sees every value.
    const std::vector<double> values =
        branch_values(member_edges(*detector, window));
    for (std::size_t round = 0; round < values.size(); ++round) {
      for (std::size_t k = 0; k < kWeek; ++k) {
        const std::size_t s = (97 * k + 31 * round) % kWeek;
        replace(s, values[(round + k) % values.size()]);
        ASSERT_TRUE(matches()) << "round " << round << " slot " << s;
      }
    }

    // Drive the window wholly out of every histogram's support (the
    // clamping fallback), then back inside it.
    double lowest = std::numeric_limits<double>::infinity();
    double highest = -lowest;
    for (const auto& edges : member_edges(*detector, window)) {
      lowest = std::min(lowest, edges.front());
      highest = std::max(highest, edges.back());
    }
    for (std::size_t s = 0; s < kWeek; ++s) {
      replace(s, s % 3 == 0 ? highest + 1.0 : lowest - 1.0);
      ASSERT_TRUE(matches()) << "out of support, slot " << s;
    }
    for (std::size_t s = 0; s < kWeek; ++s) {
      replace(s, series[s]);
      ASSERT_TRUE(matches()) << "back in support, slot " << s;
    }
  }
}

std::string family_name(
    const ::testing::TestParamInfo<std::string_view>& info) {
  std::string name(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, CountContract,
                         ::testing::ValuesIn(registered_detector_names()),
                         family_name);

}  // namespace
}  // namespace fdeta::core
