#include "core/consumer_model.h"

#include "common/error.h"
#include "common/thread_pool.h"
#include "persist/binary_io.h"
#include "persist/checkpoint.h"
#include "stats/descriptive.h"
#include "stats/quantile.h"

namespace fdeta::core {

std::shared_ptr<const ConsumerModel> ConsumerModel::fit(
    const std::string& family, const DetectorOptions& options,
    const meter::TrainTestSplit& split, std::size_t count,
    const meter::SeriesSource& source, std::size_t threads,
    const std::function<void(std::size_t, const meter::ConsumerSeries&)>&
        visit) {
  auto model = std::make_shared<ConsumerModel>();
  model->fleet = DetectorFleet(family, options, count, split.train_weeks);
  model->ids.assign(count, 0);
  model->train_mean.assign(count, 0.0);
  model->quartiles.assign(2 * count, 0.0);
  parallel_for(
      count,
      [&](std::size_t i) {
        meter::ConsumerSeries scratch;
        const meter::ConsumerSeries& series = source(i, scratch);
        const std::span<const Kw> train = split.train(series);
        model->ids[i] = series.id;
        model->fleet.fit(i, train);
        model->train_mean[i] = stats::mean(train);
        std::vector<double> weekly(split.train_weeks);
        for (std::size_t w = 0; w < weekly.size(); ++w) {
          weekly[w] = stats::mean(train.subspan(w * kSlotsPerWeek,
                                                std::size_t{kSlotsPerWeek}));
        }
        model->quartiles[2 * i] = stats::quantile(weekly, 0.25);
        model->quartiles[2 * i + 1] = stats::quantile(weekly, 0.75);
        if (visit) visit(i, series);
      },
      threads);
  return model;
}

void ConsumerModel::save(persist::CheckpointWriter& writer) const {
  persist::Encoder enc;
  fleet.save(enc);
  enc.u32_array(ids);
  enc.f64_array(train_mean);
  enc.f64_array(quartiles);
  writer.write(enc.bytes());
}

std::shared_ptr<const ConsumerModel> ConsumerModel::restore(
    persist::CheckpointReader& reader, std::size_t threads) {
  const std::string payload = reader.read();
  persist::Decoder dec(payload);
  auto model = std::make_shared<ConsumerModel>();
  model->fleet = DetectorFleet::restore(dec, threads);
  const std::size_t count = model->fleet.size();
  model->ids = dec.u32_array("model consumer ids", count);
  model->train_mean = dec.f64_array("model training means", count);
  model->quartiles = dec.f64_array("model quartiles", count, 2);
  dec.require_exhausted("consumer model");
  persist::require_finite("model training means", model->train_mean);
  persist::require_finite("model quartiles", model->quartiles);
  for (std::size_t i = 0; i < count; ++i) {
    if (!(model->quartiles[2 * i] <= model->quartiles[2 * i + 1])) {
      throw DataError("checkpoint: model quartiles out of order");
    }
  }
  return model;
}

void ConsumerModel::require_consumers(const meter::Dataset& data,
                                      std::string_view what) const {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const meter::ConsumerId id = data.consumer(i).id;
    if (id != ids[i]) {
      throw DataError(std::string(what) + ": consumer " + std::to_string(i) +
                      " is " + std::to_string(id) + ", the model's is " +
                      std::to_string(ids[i]));
    }
  }
}

}  // namespace fdeta::core
