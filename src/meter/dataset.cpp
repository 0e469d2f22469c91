#include "meter/dataset.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <map>
#include <ostream>

#include "common/csv.h"
#include "common/error.h"

namespace fdeta::meter {

Dataset::Dataset(std::vector<ConsumerSeries> series)
    : series_(std::move(series)) {
  if (series_.empty()) return;
  const std::size_t len = series_.front().readings.size();
  for (const auto& s : series_) {
    require(s.readings.size() == len, "Dataset: inconsistent series lengths");
  }
}

const ConsumerSeries& Dataset::consumer(std::size_t index) const {
  require(index < series_.size(), "Dataset::consumer: index out of range");
  return series_[index];
}

ConsumerSeries& Dataset::consumer(std::size_t index) {
  require(index < series_.size(), "Dataset::consumer: index out of range");
  return series_[index];
}

std::optional<std::size_t> Dataset::index_of(ConsumerId id) const {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].id == id) return i;
  }
  return std::nullopt;
}

void Dataset::add(ConsumerSeries series) {
  if (!series_.empty()) {
    require(series.readings.size() == series_.front().readings.size(),
            "Dataset::add: series length mismatch");
  }
  series_.push_back(std::move(series));
}

std::vector<Kw> Dataset::aggregate_demand() const {
  std::vector<Kw> total(slot_count(), 0.0);
  for (const auto& s : series_) {
    for (std::size_t t = 0; t < total.size(); ++t) total[t] += s.readings[t];
  }
  return total;
}

void Dataset::save_csv(std::ostream& out) const {
  out << "consumer_id,type,slot,kw\n";
  for (const auto& s : series_) {
    for (std::size_t t = 0; t < s.readings.size(); ++t) {
      out << s.id << ',' << static_cast<int>(s.type) << ',' << t << ','
          << s.readings[t] << '\n';
    }
  }
}

Dataset Dataset::load_csv(std::istream& in) {
  const auto lines = read_lines(in);
  require(!lines.empty(), "Dataset::load_csv: empty input");

  std::map<ConsumerId, ConsumerSeries> by_id;
  for (std::size_t i = 1; i < lines.size(); ++i) {  // skip header
    const auto fields = split_csv_line(lines[i]);
    if (fields.size() != 4) {
      throw DataError("Dataset::load_csv: expected 4 fields at line " +
                      std::to_string(i + 1));
    }
    const std::string at_line = " at line " + std::to_string(i + 1);
    long id_raw = 0;
    long type_raw = 0;
    std::size_t slot = 0;
    double kw = 0.0;
    try {
      id_raw = parse_long(fields[0], "consumer_id");
      type_raw = parse_long(fields[1], "type");
      slot = static_cast<std::size_t>(parse_long(fields[2], "slot"));
      kw = parse_double(fields[3], "kw");
    } catch (const DataError& e) {
      throw DataError(std::string("Dataset::load_csv: ") + e.what() + at_line);
    }
    // Narrowing an id outside ConsumerId's range would wrap it onto another
    // consumer (-1 to 4294967295, 1000 + 2^32 to 1000).
    if (id_raw < 0 || static_cast<unsigned long>(id_raw) >
                          std::numeric_limits<ConsumerId>::max()) {
      throw DataError("Dataset::load_csv: consumer_id " + fields[0] +
                      " out of range" + at_line);
    }
    if (type_raw < 0 || type_raw > 2) {
      throw DataError("Dataset::load_csv: bad type code" + at_line);
    }
    const auto id = static_cast<ConsumerId>(id_raw);
    const auto type = static_cast<ConsumerType>(type_raw);

    auto& series = by_id[id];
    if (!series.readings.empty() && series.type != type) {
      throw DataError("Dataset::load_csv: type of consumer " +
                      std::to_string(id) + " changes" + at_line);
    }
    series.id = id;
    series.type = type;
    if (slot != series.readings.size()) {
      throw DataError("Dataset::load_csv: non-dense slots for consumer " +
                      std::to_string(id) + at_line);
    }
    series.readings.push_back(kw);
  }

  std::vector<ConsumerSeries> all;
  all.reserve(by_id.size());
  for (auto& [id, series] : by_id) all.push_back(std::move(series));
  return Dataset(std::move(all));
}

DatasetSummary summarize(const Dataset& dataset) {
  DatasetSummary s;
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& c : dataset.consumers()) {
    switch (c.type) {
      case ConsumerType::kResidential: ++s.residential; break;
      case ConsumerType::kSme: ++s.sme; break;
      case ConsumerType::kUnclassified: ++s.unclassified; break;
    }
    for (double kw : c.readings) {
      total += kw;
      s.max_kw = std::max(s.max_kw, kw);
      ++n;
    }
  }
  s.mean_kw = n ? total / static_cast<double>(n) : 0.0;
  return s;
}

SeriesSource series_source(const Dataset& dataset) {
  return [&dataset](std::size_t i, ConsumerSeries&) -> const ConsumerSeries& {
    return dataset.consumer(i);
  };
}

}  // namespace fdeta::meter
