#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace fdeta::stats {
namespace {

TEST(Histogram, EdgesSpanReferenceRange) {
  const std::vector<double> ref{0.0, 1.0, 2.0, 3.0, 4.0};
  const Histogram h(ref, 4);
  ASSERT_EQ(h.edges().size(), 5u);
  EXPECT_DOUBLE_EQ(h.edges().front(), 0.0);
  EXPECT_DOUBLE_EQ(h.edges().back(), 4.0);
  EXPECT_EQ(h.bin_count(), 4u);
}

TEST(Histogram, ConstantReferenceWidened) {
  const std::vector<double> ref{2.0, 2.0, 2.0};
  const Histogram h(ref, 3);
  EXPECT_LT(h.edges().front(), 2.0);
  EXPECT_GT(h.edges().back(), 2.0);
  // All reference values land in one bin.
  const auto counts = h.counts(ref);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 3u);
}

TEST(Histogram, BinOfInteriorValues) {
  const std::vector<double> ref{0.0, 10.0};
  const Histogram h(ref, 10);
  EXPECT_EQ(h.bin_of(0.5), 0u);
  EXPECT_EQ(h.bin_of(5.5), 5u);
  EXPECT_EQ(h.bin_of(9.99), 9u);
}

TEST(Histogram, MaxValueInLastBin) {
  const std::vector<double> ref{0.0, 10.0};
  const Histogram h(ref, 10);
  EXPECT_EQ(h.bin_of(10.0), 9u);
}

TEST(Histogram, OutOfRangeClampsToOuterBins) {
  const std::vector<double> ref{0.0, 10.0};
  const Histogram h(ref, 10);
  EXPECT_EQ(h.bin_of(-5.0), 0u);
  EXPECT_EQ(h.bin_of(999.0), 9u);
}

TEST(Histogram, CountsSumToSampleSize) {
  Rng rng(1);
  std::vector<double> ref(1000);
  for (auto& v : ref) v = rng.normal();
  const Histogram h(ref, 10);
  std::vector<double> sample(500);
  for (auto& v : sample) v = rng.normal();
  const auto counts = h.counts(sample);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 500u);
}

TEST(Histogram, ProbabilitiesNormalised) {
  Rng rng(2);
  std::vector<double> ref(1000);
  for (auto& v : ref) v = rng.uniform();
  const Histogram h(ref, 7);
  const auto p = h.probabilities(ref);
  const double total = std::accumulate(p.begin(), p.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, ProbabilitiesThrowOnEmptySample) {
  const Histogram h(std::vector<double>{0.0, 1.0}, 2);
  EXPECT_THROW(h.probabilities(std::vector<double>{}), InvalidArgument);
}

TEST(Histogram, ExplicitEdgesConstructor) {
  const Histogram h(std::vector<double>{0.0, 1.0, 2.0});
  EXPECT_EQ(h.bin_count(), 2u);
  EXPECT_EQ(h.bin_of(0.5), 0u);
  EXPECT_EQ(h.bin_of(1.5), 1u);
}

TEST(Histogram, ExplicitEdgesMustBeSorted) {
  EXPECT_THROW(Histogram(std::vector<double>{1.0, 0.0}), InvalidArgument);
}

TEST(Histogram, RequiresAtLeastOneBinAndNonEmptyReference) {
  EXPECT_THROW(Histogram(std::vector<double>{1.0}, 0), InvalidArgument);
  EXPECT_THROW(Histogram(std::vector<double>{}, 4), InvalidArgument);
}

// The KLD detector's key requirement: the same frozen edges applied to a
// subset reproduce the subset's relative frequencies under the parent's
// binning.
TEST(Histogram, FrozenEdgesSharedAcrossSamples) {
  const std::vector<double> parent{0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  const Histogram h(parent, 4);
  const std::vector<double> child{0.5, 6.5};
  const auto p = h.probabilities(child);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[3], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
}

// The documented bin_of contract, spelled out as code: index of the last
// edge <= value (upper_bound minus one), clamped into [0, bins).  The O(1)
// guess-grid implementation must agree with this reference for EVERY input,
// non-uniform edges and specials included.
std::size_t reference_bin(const std::vector<double>& edges, double value) {
  const auto it = std::upper_bound(edges.begin(), edges.end(), value);
  std::ptrdiff_t j = (it - edges.begin()) - 1;
  const auto last = static_cast<std::ptrdiff_t>(edges.size()) - 2;
  if (j < 0) j = 0;
  if (j > last) j = last;
  return static_cast<std::size_t>(j);
}

TEST(Histogram, BinOfMatchesUpperBoundReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> edge_sets{
      // Uniform edges (the fit() path).
      {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0},
      // Wildly non-uniform explicit edges: the guess grid is wrong by many
      // bins here and the fixup walk must recover the exact index.
      {0.0, 0.1, 0.5, 0.7, 3.0, 100.0},
      // A duplicated edge: bin 1 is zero-width, values at exactly 1.0 must
      // land in bin 2 (first edge strictly greater than 1.0 is edges[3]).
      {0.0, 1.0, 1.0, 2.0},
      // A zero-width histogram (inv_width_ is infinite).
      {2.0, 2.0}};
  for (const auto& edges : edge_sets) {
    const Histogram h(edges);
    std::vector<double> probes{-inf, inf, nan, -1e300, 1e300};
    for (double e : edges) {
      probes.push_back(e);
      probes.push_back(std::nextafter(e, -inf));
      probes.push_back(std::nextafter(e, inf));
    }
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      probes.push_back(edges.front() - 1.0 +
                       rng.uniform() * (edges.back() - edges.front() + 2.0));
    }
    for (double v : probes) {
      EXPECT_EQ(h.bin_of(v), reference_bin(edges, v))
          << "edges[0]=" << edges.front() << " bins=" << h.bin_count()
          << " v=" << v;
    }
  }
}

TEST(Histogram, BinOfSpecialValues) {
  const Histogram h(std::vector<double>{0.0, 10.0}, 10);
  // NaN compares false against every edge, so it stays in the last bin -
  // the same place upper_bound semantics put it.
  EXPECT_EQ(h.bin_of(std::numeric_limits<double>::quiet_NaN()), 9u);
  EXPECT_EQ(h.bin_of(-std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(h.bin_of(std::numeric_limits<double>::infinity()), 9u);
  EXPECT_EQ(h.bin_of(10.0), 9u);  // max closed on the right
}

TEST(Histogram, RejectsNonFiniteEdges) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN compares false both ways, so it slips past an is_sorted check.
  for (const std::vector<double>& edges :
       {std::vector<double>{nan, 1.0, 2.0}, {0.0, nan, 2.0}, {0.0, 1.0, inf},
        {-inf, 0.0, 1.0}}) {
    EXPECT_THROW(Histogram{edges}, InvalidArgument);
  }
}

TEST(Histogram, RejectsNonFiniteEdgesFromReference) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Histogram(std::vector<double>{0.0, 1.0, inf}, 4),
               InvalidArgument);
  EXPECT_THROW(Histogram(std::vector<double>{-inf, 0.0, 1.0}, 4),
               InvalidArgument);
  // A finite range wider than a double: the bin width overflows.
  EXPECT_THROW(Histogram(std::vector<double>{-1e308, 1e308}, 4),
               InvalidArgument);
}

class HistogramBinSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistogramBinSweep, UniformDataFillsBinsEvenly) {
  const std::size_t bins = GetParam();
  Rng rng(42);
  std::vector<double> data(bins * 2000);
  for (auto& v : data) v = rng.uniform();
  const Histogram h(data, bins);
  const auto p = h.probabilities(data);
  for (double prob : p) {
    EXPECT_NEAR(prob, 1.0 / static_cast<double>(bins),
                0.25 / static_cast<double>(bins));
  }
}

INSTANTIATE_TEST_SUITE_P(BinCounts, HistogramBinSweep,
                         ::testing::Values(2, 5, 10, 20, 40));

}  // namespace
}  // namespace fdeta::stats
