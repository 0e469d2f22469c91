#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

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
  check_edges();
}

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  require(edges_.size() >= 2, "Histogram: need at least two edges");
  require(std::is_sorted(edges_.begin(), edges_.end()),
          "Histogram: edges must be ascending");
  check_edges();
}

void Histogram::check_edges() {
  // A non-finite edge (an infinite reading in the reference, or a range
  // wider than a double) would misbin every value silently.
  require(std::all_of(edges_.begin(), edges_.end(),
                      [](double e) { return std::isfinite(e); }),
          "Histogram: edges must be finite");
  scale_ = bin_scale(edges_);
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

}  // namespace fdeta::stats
