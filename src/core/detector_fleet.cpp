#include "core/detector_fleet.h"

#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "persist/binary_io.h"

namespace fdeta::core {

namespace {

/// The fitted model of a "kld" member.
const KldModel& model(const std::unique_ptr<ScoringDetector>& member) {
  return static_cast<const KldDetector&>(*member).model();
}

/// Row `i` of a flat count x width array.
std::vector<double> row(const std::vector<double>& flat, std::size_t i,
                        std::size_t width) {
  const auto first = flat.begin() + static_cast<std::ptrdiff_t>(i * width);
  return {first, first + static_cast<std::ptrdiff_t>(width)};
}

}  // namespace

DetectorFleet::DetectorFleet(std::string family, DetectorOptions options,
                             std::size_t count)
    : family_(std::move(family)), options_(options), members_(count) {
  make_detector(family_, options_);  // fails fast, even for an empty fleet
}

void DetectorFleet::fit(std::size_t i, std::span<const Kw> training) {
  members_[i] = make_detector(family_, options_);
  members_[i]->fit(training);
}

void DetectorFleet::save(persist::Encoder& enc) const {
  enc.u64(members_.size());
  enc.str(family_);
  // "kld" stores its own config; the other families all of the options.
  enc.u64(options_.kld.bins);
  enc.f64(options_.kld.significance);
  enc.f64(options_.kld.epsilon);
  enc.u8(options_.kld.exclude_out_of_support ? 1 : 0);
  if (family_ != "kld") {
    enc.u64(options_.reduced_slots);
    // Payloads are self-framing (save_state contract): no member lengths.
    for (const auto& member : members_) member->save_state(enc);
    return;
  }
  // One fit gives every member the same training-week count, so the
  // per-field arrays below need no per-member framing and restore as bulk
  // reads: consecutive per-member appends produce the same bytes as one
  // flat count x width array, which the decoder reads in one memcpy.
  const std::size_t train_weeks =
      size() > 0 ? model(members_[0]).training_divergences().size() : 0;
  for (const auto& m : members_) {
    require(model(m).training_divergences().size() == train_weeks,
            "DetectorFleet::save: members differ in training weeks");
  }
  enc.u64(train_weeks);
  for (auto& m : members_) enc.f64_array(model(m).histogram().edges());
  for (auto& m : members_) enc.f64_array(model(m).baseline());
  for (auto& m : members_) enc.f64_array(model(m).training_divergences());
  for (auto& m : members_) enc.f64(model(m).threshold());
}

DetectorFleet DetectorFleet::restore(persist::Decoder& dec,
                                     std::size_t threads) {
  const std::size_t count = dec.count("detector fleet members", 100u << 20);
  DetectorFleet fleet;
  fleet.family_ = dec.str("detector id", 256);
  if (!is_registered_detector(fleet.family_)) {
    throw DataError("checkpoint: unknown detector id \"" + fleet.family_ +
                    "\"");
  }
  DetectorOptions& o = fleet.options_;
  o.kld.bins = dec.count("kld bins", 1u << 20);
  o.kld.significance = dec.f64();
  o.kld.epsilon = dec.f64();
  o.kld.exclude_out_of_support = dec.u8() != 0;
  const bool kld = fleet.family_ == "kld";
  if (!kld) o.reduced_slots = dec.count("kld-lite slots", 1u << 20);
  // The one place decoded detector configs are validated: the prototype
  // build checks the options, and the member rebuilds check each payload.
  // A precondition they break (a significance out of (0,1), unsorted edges)
  // marks a malformed checkpoint, not a bad call.
  try {
    const std::string fingerprint =
        make_detector(fleet.family_, fleet.options_)->config_fingerprint();
    if (kld) {
      fleet.restore_kld(dec, count, threads);
    } else {
      // Every payload opens with at least one u64 config field.
      dec.require_fits("detector fleet members", count, 8);
      fleet.members_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        fleet.members_.push_back(
            make_detector(fleet.family_, fleet.options_));
        fleet.members_.back()->restore_state(dec);
        if (fleet.members_.back()->config_fingerprint() != fingerprint) {
          throw DataError(
              "checkpoint: a detector does not match the fleet's options");
        }
      }
    }
  } catch (const InvalidArgument& e) {
    throw DataError(std::string("checkpoint: ") + e.what());
  }
  return fleet;
}

void DetectorFleet::restore_kld(persist::Decoder& dec, std::size_t count,
                                std::size_t threads) {
  const KldDetectorConfig& kld = options_.kld;
  const std::size_t train_weeks = dec.count("train weeks", 1u << 20);
  const std::size_t edge_n = kld.bins + 1;
  const std::vector<double> edges = dec.f64_array("kld edges", count, edge_n);
  const std::vector<double> baselines =
      dec.f64_array("kld baselines", count, kld.bins);
  const std::vector<double> divergences =
      dec.f64_array("kld training divergences", count, train_weeks);
  const std::vector<double> thresholds = dec.f64_array("kld thresholds", count);

  members_.resize(count);
  parallel_for(
      count,
      [&](std::size_t i) {
        members_[i] =
            std::make_unique<KldDetector>(KldDetector::from_fitted_parts(
                kld, row(edges, i, edge_n), row(baselines, i, kld.bins),
                row(divergences, i, train_weeks), thresholds[i]));
      },
      threads);
}

}  // namespace fdeta::core
