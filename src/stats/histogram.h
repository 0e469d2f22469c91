// Fixed-edge histograms.
//
// The KLD detector (Section VII-D) builds a histogram of the full training
// matrix X with B bins and then evaluates every week vector X_i against the
// *same* bin edges ("It is essential to use the exact same bin edges
// determined from the X distribution").  Values outside the reference range
// (as attack vectors often are) are absorbed by the outermost bins, so the
// detector still sees their probability mass.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fdeta::persist {
class Encoder;
class Decoder;
}  // namespace fdeta::persist

namespace fdeta::stats {

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

  /// Index of the bin receiving `value`.
  ///
  /// Clamping semantics (deliberate, per Section VII-D): the outer bins are
  /// open, so a value below edges().front() lands in bin 0 and a value above
  /// edges().back() in the last bin.  The detector must still see the
  /// probability mass of out-of-range readings (attack vectors often sit
  /// outside the training range), but the clamp is silent - bin_of(v) == 0
  /// cannot tell "v was in the lowest training bin" from "v was below the
  /// training support entirely".  Callers that need the distinction use
  /// counts_into()/probabilities_into() with exclude_out_of_support, which
  /// route out-of-support values to the underflow/overflow tallies instead
  /// of inflating the outer bins' probability mass.
  ///
  /// O(1): an arithmetic index guess from the (uniform-width) edge grid,
  /// corrected by a short fixup walk, replaces the upper_bound binary
  /// search; the result is identical for every input, non-uniform explicit
  /// edges and NaN included.
  std::size_t bin_of(double value) const;

  /// Out-of-support accounting for one binning pass.
  struct BinningStats {
    std::size_t underflow = 0;   ///< values strictly below edges().front()
    std::size_t overflow = 0;    ///< values strictly above edges().back()
    std::size_t in_support = 0;  ///< values counted into the bins
  };

  /// Bins `sample` into `out` (size bin_count(), zeroed here) without
  /// allocating - the fleet hot path.  With exclude_out_of_support, values
  /// outside [edges().front(), edges().back()] are tallied in the returned
  /// BinningStats and NOT counted into the outer bins (a negative or absurd
  /// reading no longer masquerades as lowest-bin consumption mass, which
  /// previously skewed KLD toward under-report alerts); with it false the
  /// historical clamping semantics apply and in_support == sample.size().
  BinningStats counts_into(std::span<const double> sample,
                           std::span<std::size_t> out,
                           bool exclude_out_of_support) const;

  /// Relative frequencies into `out` (size bin_count()), normalised over
  /// the in-support count when excluding so the distribution still sums to
  /// 1.  Degenerate guard: when every value is out of support there is no
  /// in-support mass to normalise, so the pass falls back to the clamping
  /// semantics (the outer bins are then the only honest place for the mass,
  /// and a detector still sees a maximally anomalous week rather than a
  /// divide-by-zero).  Requires a non-empty sample.
  BinningStats probabilities_into(std::span<const double> sample,
                                  std::span<double> out,
                                  bool exclude_out_of_support) const;

  /// Number of values in `sample` strictly below edges().front() - readings
  /// outside the training support that bin_of() clamps into bin 0.
  std::size_t underflow_count(std::span<const double> sample) const;

  /// Number of values in `sample` strictly above edges().back().
  std::size_t overflow_count(std::span<const double> sample) const;

  /// Raw counts of `sample` per bin.
  std::vector<std::size_t> counts(std::span<const double> sample) const;

  /// Relative frequencies per bin (counts / sample size).  This is the
  /// p(X^(j)) of eq. (12).  Requires a non-empty sample.
  std::vector<double> probabilities(std::span<const double> sample) const;

  /// Serialization hooks for model checkpoints (persist/checkpoint.h): the
  /// frozen edges are the histogram's entire state.
  void save(persist::Encoder& enc) const;
  static Histogram load(persist::Decoder& dec);

 private:
  void init_grid();

  std::vector<double> edges_;  // ascending, size = bins + 1
  // Arithmetic guess grid for bin_of (derived from edges_, not serialized).
  double lo_ = 0.0;
  double inv_width_ = 0.0;
};

}  // namespace fdeta::stats
