// The smart-meter dataset: a collection of consumer series with a common
// horizon, plus CSV import/export in a CER-like long format.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "meter/series.h"

namespace fdeta::meter {

class Dataset {
 public:
  Dataset() = default;

  /// Takes ownership of the series; all must share one horizon length.
  explicit Dataset(std::vector<ConsumerSeries> series);

  std::size_t consumer_count() const { return series_.size(); }
  std::size_t week_count() const {
    return series_.empty() ? 0 : series_.front().week_count();
  }
  std::size_t slot_count() const {
    return series_.empty() ? 0 : series_.front().readings.size();
  }

  const std::vector<ConsumerSeries>& consumers() const { return series_; }
  const ConsumerSeries& consumer(std::size_t index) const;
  ConsumerSeries& consumer(std::size_t index);

  /// Index of the consumer with the given id, if present.
  std::optional<std::size_t> index_of(ConsumerId id) const;

  /// Appends a consumer (must match the existing horizon).
  void add(ConsumerSeries series);

  /// Aggregate demand per slot across all consumers: the feeder-level demand
  /// seen by the trusted root balance meter (Section VIII-A assumes the sum
  /// of all consumer readings is checked at the root).
  std::vector<Kw> aggregate_demand() const;

  /// Writes "consumer_id,type,slot,kw" rows.
  void save_csv(std::ostream& out) const;

  /// Parses the save_csv format.  Slots must be dense per consumer.
  static Dataset load_csv(std::istream& in);

 private:
  std::vector<ConsumerSeries> series_;
};

/// Per-type count summary (for README/examples reporting).
struct DatasetSummary {
  std::size_t residential = 0;
  std::size_t sme = 0;
  std::size_t unclassified = 0;
  double mean_kw = 0.0;
  double max_kw = 0.0;
};
DatasetSummary summarize(const Dataset& dataset);

/// Consumer i's series for a fit pass (called from pool tasks): a reference
/// into a held dataset, or `scratch` filled by a materialising source.
using SeriesSource = std::function<const ConsumerSeries&(
    std::size_t i, ConsumerSeries& scratch)>;
/// Reads `dataset`'s series in place (no copy).
SeriesSource series_source(const Dataset& dataset);

}  // namespace fdeta::meter
