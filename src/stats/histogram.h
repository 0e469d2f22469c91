// Fixed-edge histograms.
//
// The KLD detector (Section VII-D) builds a histogram of the full training
// matrix X with B bins and then evaluates every week vector X_i against the
// *same* bin edges ("It is essential to use the exact same bin edges
// determined from the X distribution").  Values outside the reference range
// (as attack vectors often are) are absorbed by the outermost bins, so the
// detector still sees their probability mass.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace fdeta::stats {

/// The slope of bin_of's arithmetic index guess over ascending `edges`
/// (B + 1 of them): B / (edges.back() - edges.front()).  Infinite for a
/// zero-width histogram, which bin_of's clamp absorbs.
inline double bin_scale(std::span<const double> edges) {
  return static_cast<double>(edges.size() - 1) /
         (edges.back() - edges.front());
}

/// Index of the bin receiving `value` among B + 1 finite ascending `edges`,
/// given `scale` = bin_scale(edges).
///
/// Clamping semantics (deliberate, per Section VII-D): the outer bins are
/// open, so a value below edges.front() lands in bin 0 and a value above
/// edges.back() in the last bin.  The detector must still see the
/// probability mass of out-of-range readings (attack vectors often sit
/// outside the training range), but the clamp is silent - bin_of(v) == 0
/// cannot tell "v was in the lowest training bin" from "v was below the
/// training support entirely".  Callers that need the distinction test
/// the value against edges.front()/back() first, as the KLD count step
/// (core::DetectorFleet) does.
///
/// O(1): an arithmetic index guess from the (uniform-width) edge grid,
/// corrected by a short fixup walk, replaces the upper_bound binary
/// search; the result is identical for every input, non-uniform explicit
/// edges and NaN included.  Inline: it runs once per reading in every
/// detector's binning loop.
inline std::size_t bin_of(std::span<const double> edges, double scale,
                          double value) {
  // Semantics pinned to upper_bound (first edge strictly greater than value):
  // bins are [e_j, e_{j+1}) except the last, which is closed on the right;
  // below-range clamps to bin 0, above-range (and NaN, for which every
  // comparison is false) to the last bin.
  const std::size_t bins = edges.size() - 1;
  if (std::isnan(value)) return bins - 1;
  double guess = (value - edges.front()) * scale;
  // Clamp BEFORE the float->int cast: an out-of-range double->size_t cast is
  // UB (UBSan float-cast-overflow), and `!(guess > 0)` also catches the NaN
  // produced by 0 * inf on a zero-width histogram.
  const double top = static_cast<double>(bins - 1);
  if (!(guess > 0.0)) guess = 0.0;
  if (guess > top) guess = top;
  std::size_t j = static_cast<std::size_t>(guess);
  // Round-off (or non-uniform edges) can leave the guess off; walk to the
  // exact bin.  For uniform edges this is at most one step.
  while (j > 0 && value < edges[j]) --j;
  while (j + 1 < bins && value >= edges[j + 1]) ++j;
  return j;
}

/// A histogram with B equal-width bins whose edges were frozen from a
/// reference sample.
class Histogram {
 public:
  /// Builds `bins` equal-width bins covering [min(reference), max(reference)].
  /// If the reference is constant, a degenerate single-point range is widened
  /// by +/- 0.5 to stay usable.  Requires bins >= 1, a non-empty sample and
  /// finite resulting edges.
  Histogram(std::span<const double> reference, std::size_t bins);

  /// Constructs directly from explicit finite ascending edges
  /// (bins = edges-1).
  explicit Histogram(std::vector<double> edges);

  std::size_t bin_count() const { return edges_.size() - 1; }
  const std::vector<double>& edges() const { return edges_; }

  /// Index of the bin receiving `value`: stats::bin_of over edges().
  std::size_t bin_of(double value) const {
    return stats::bin_of(edges_, scale_, value);
  }

  /// Raw counts of `sample` per bin.
  std::vector<std::size_t> counts(std::span<const double> sample) const;

  /// Relative frequencies per bin (counts / sample size).  This is the
  /// p(X^(j)) of eq. (12).  Requires a non-empty sample.
  std::vector<double> probabilities(std::span<const double> sample) const;

 private:
  void check_edges();

  std::vector<double> edges_;  // ascending, size = bins + 1
  double scale_ = 0.0;         // bin_scale(edges_)
};

}  // namespace fdeta::stats
