// The fitted consumer model (Sections VII-A, VII-D): each consumer's id,
// its detector, a DetectorFleet row, and its training summary - the
// training-span mean (the monitor's alert direction, the feeder layer's
// collusion test) and the quartiles of its training weekly means (the
// pipeline's step-3 bands).  One fit pass builds it and one checkpoint
// section stores it (DESIGN.md §9); FdetaPipeline and OnlineMonitor share
// it read-only, so `fdeta detect` fits or restores it once for both, and
// both refuse data whose consumer i is not the model's consumer i.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector_fleet.h"
#include "meter/dataset.h"

namespace fdeta::persist {
class CheckpointReader;
class CheckpointWriter;
}  // namespace fdeta::persist

namespace fdeta::core {

struct ConsumerModel {
  /// Fits `count` consumers of `family` on the first split.train_weeks
  /// weeks of each series, fetching every series once from `source` on the
  /// shared pool (`threads` caps it).  `visit(i, series)` then runs in the
  /// same pool task (the monitor primes its window there).
  static std::shared_ptr<const ConsumerModel> fit(
      const std::string& family, const DetectorOptions& options,
      const meter::TrainTestSplit& split, std::size_t count,
      const meter::SeriesSource& source, std::size_t threads,
      const std::function<void(std::size_t, const meter::ConsumerSeries&)>&
          visit = {});

  /// One section: the fleet block, the ids, the training means, the
  /// quartiles.
  void save(persist::CheckpointWriter& writer) const;
  /// Reads a save() section; throws DataError on a malformed one.
  static std::shared_ptr<const ConsumerModel> restore(
      persist::CheckpointReader& reader, std::size_t threads);

  /// Throws DataError, naming the index and both ids, unless consumer i of
  /// `data` (`what`, one series per model consumer) is the model's consumer
  /// i for every i.
  void require_consumers(const meter::Dataset& data,
                         std::string_view what) const;

  DetectorFleet fleet;                 // one detector per consumer
  std::vector<meter::ConsumerId> ids;  // count: the consumer each row fits
  std::vector<double> train_mean;      // count: training-span means (kW)
  std::vector<double> quartiles;       // count x 2: weekly-mean q25, q75
};

}  // namespace fdeta::core
