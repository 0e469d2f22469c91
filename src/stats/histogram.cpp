#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "persist/binary_io.h"

namespace fdeta::stats {

Histogram::Histogram(std::span<const double> reference, std::size_t bins) {
  require(bins >= 1, "Histogram: need at least one bin");
  require(!reference.empty(), "Histogram: empty reference sample");
  const auto [lo_it, hi_it] =
      std::minmax_element(reference.begin(), reference.end());
  double lo = *lo_it;
  double hi = *hi_it;
  if (lo == hi) {  // degenerate constant sample
    lo -= 0.5;
    hi += 0.5;
  }
  edges_.resize(bins + 1);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t j = 0; j <= bins; ++j) {
    edges_[j] = lo + width * static_cast<double>(j);
  }
  edges_.back() = hi;  // avoid round-off excluding the max
  init_grid();
}

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  require(edges_.size() >= 2, "Histogram: need at least two edges");
  require(std::is_sorted(edges_.begin(), edges_.end()),
          "Histogram: edges must be ascending");
  init_grid();
}

void Histogram::init_grid() {
  // A non-finite edge (an infinite reading in the reference, or a range
  // wider than a double) would misbin every value silently.
  require(std::all_of(edges_.begin(), edges_.end(),
                      [](double e) { return std::isfinite(e); }),
          "Histogram: edges must be finite");
  lo_ = edges_.front();
  // A guess grid assuming uniform widths; the fixup walk in bin_of makes the
  // result exact for non-uniform explicit edges too.  A zero-width histogram
  // (all edges equal) yields an infinite inv_width_, which the NaN/negative
  // clamp below absorbs.
  inv_width_ = static_cast<double>(bin_count()) / (edges_.back() - lo_);
}

std::size_t Histogram::bin_of(double value) const {
  // Semantics pinned to upper_bound (first edge strictly greater than value):
  // bins are [e_j, e_{j+1}) except the last, which is closed on the right;
  // below-range clamps to bin 0, above-range (and NaN, for which every
  // comparison is false) to the last bin.
  if (std::isnan(value)) return bin_count() - 1;
  double guess = (value - lo_) * inv_width_;
  // Clamp BEFORE the float->int cast: an out-of-range double->size_t cast is
  // UB (UBSan float-cast-overflow), and `!(guess > 0)` also catches the NaN
  // produced by 0 * inf on a zero-width histogram.
  const double top = static_cast<double>(bin_count() - 1);
  if (!(guess > 0.0)) guess = 0.0;
  if (guess > top) guess = top;
  std::size_t j = static_cast<std::size_t>(guess);
  // Round-off (or non-uniform edges) can leave the guess off; walk to the
  // exact bin.  For uniform edges this is at most one step.
  while (j > 0 && value < edges_[j]) --j;
  while (j + 1 < bin_count() && value >= edges_[j + 1]) ++j;
  return j;
}

Histogram::BinningStats Histogram::counts_into(
    std::span<const double> sample, std::span<std::size_t> out,
    bool exclude_out_of_support) const {
  require(out.size() == bin_count(), "Histogram::counts_into: out span size");
  std::fill(out.begin(), out.end(), std::size_t{0});
  BinningStats stats;
  const double lo = edges_.front();
  const double hi = edges_.back();
  if (exclude_out_of_support) {
    for (double v : sample) {
      // NaN compares false on both, so it stays "in support" and clamps to
      // the last bin - identical to bin_of's semantics.
      if (v < lo) {
        ++stats.underflow;
      } else if (v > hi) {
        ++stats.overflow;
      } else {
        ++out[bin_of(v)];
        ++stats.in_support;
      }
    }
  } else {
    for (double v : sample) {
      if (v < lo) {
        ++stats.underflow;
      } else if (v > hi) {
        ++stats.overflow;
      }
      ++out[bin_of(v)];
    }
    stats.in_support = sample.size();
  }
  return stats;
}

Histogram::BinningStats Histogram::probabilities_into(
    std::span<const double> sample, std::span<double> out,
    bool exclude_out_of_support) const {
  require(!sample.empty(), "Histogram::probabilities_into: empty sample");
  require(out.size() == bin_count(),
          "Histogram::probabilities_into: out span size");
  // Counts accumulate directly in the double output (week-scale counts are
  // integer-exact in a double), so the pass needs no scratch allocation.
  std::fill(out.begin(), out.end(), 0.0);
  BinningStats stats;
  const double lo = edges_.front();
  const double hi = edges_.back();
  if (exclude_out_of_support) {
    for (double v : sample) {
      if (v < lo) {
        ++stats.underflow;
      } else if (v > hi) {
        ++stats.overflow;
      } else {
        out[bin_of(v)] += 1.0;
        ++stats.in_support;
      }
    }
    if (stats.in_support > 0) {
      const double n = static_cast<double>(stats.in_support);
      for (double& p : out) p /= n;
      return stats;
    }
    // Every value is out of support: no in-support mass to normalise over,
    // so fall back to the clamping semantics (see the header).  The stats
    // keep in_support == 0 and the full out-of-support tallies, so a caller
    // can still see the fallback fired.
    for (double v : sample) out[bin_of(v)] += 1.0;
    const double n = static_cast<double>(sample.size());
    for (double& p : out) p /= n;
    return stats;
  }
  for (double v : sample) {
    if (v < lo) {
      ++stats.underflow;
    } else if (v > hi) {
      ++stats.overflow;
    }
    out[bin_of(v)] += 1.0;
  }
  stats.in_support = sample.size();
  const double n = static_cast<double>(sample.size());
  for (double& p : out) p /= n;
  return stats;
}

std::size_t Histogram::underflow_count(std::span<const double> sample) const {
  std::size_t n = 0;
  for (double v : sample) n += v < edges_.front() ? 1 : 0;
  return n;
}

std::size_t Histogram::overflow_count(std::span<const double> sample) const {
  std::size_t n = 0;
  for (double v : sample) n += v > edges_.back() ? 1 : 0;
  return n;
}

std::vector<std::size_t> Histogram::counts(std::span<const double> sample) const {
  std::vector<std::size_t> out(bin_count(), 0);
  for (double v : sample) ++out[bin_of(v)];
  return out;
}

std::vector<double> Histogram::probabilities(
    std::span<const double> sample) const {
  require(!sample.empty(), "Histogram::probabilities: empty sample");
  const auto raw = counts(sample);
  std::vector<double> out(raw.size());
  const double n = static_cast<double>(sample.size());
  for (std::size_t j = 0; j < raw.size(); ++j) {
    out[j] = static_cast<double>(raw[j]) / n;
  }
  return out;
}

void Histogram::save(persist::Encoder& enc) const { enc.doubles(edges_); }

Histogram Histogram::load(persist::Decoder& dec) {
  // The explicit-edges constructor revalidates (>= 2 edges, ascending), so
  // a corrupted edge array is rejected rather than silently misbinned.
  return Histogram(dec.doubles("histogram edges", 1u << 20));
}

}  // namespace fdeta::stats
