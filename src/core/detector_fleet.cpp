#include "core/detector_fleet.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/conditioned_kld_detector.h"
#include "persist/binary_io.h"

namespace fdeta::core {

namespace {

/// What a family stores beyond its config: ckld's slot->group table once
/// per block, then G models and (kld-lite) k positions per member.
struct Shape {
  std::span<const std::uint32_t> calendar{};
  std::size_t groups = 1;
  std::size_t positions = 0;
};

/// The shape of `prototype`'s family; the calendar views the prototype.
Shape shape_of(const ScoringDetector& prototype,
               const DetectorOptions& options) {
  if (const auto* ckld =
          dynamic_cast<const ConditionedKldDetector*>(&prototype)) {
    return {.calendar = ckld->config().slot_group, .groups = ckld->groups()};
  }
  if (dynamic_cast<const ReducedKldDetector*>(&prototype) != nullptr) {
    return {.positions = options.reduced_slots};
  }
  return {};
}

/// Row `i` of a flat count x width array.
template <typename T>
std::span<const T> row(const std::vector<T>& flat, std::size_t i,
                       std::size_t width) {
  return std::span<const T>(flat).subspan(i * width, width);
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
  const std::unique_ptr<ScoringDetector> prototype =
      make_detector(family_, options_);
  const Shape shape = shape_of(*prototype, options_);
  enc.u64(members_.size());
  enc.str(family_);
  enc.u64(options_.kld.bins);
  enc.f64(options_.kld.significance);
  enc.f64(options_.kld.epsilon);
  enc.u8(options_.kld.exclude_out_of_support ? 1 : 0);
  if (family_ != "kld") enc.u64(options_.reduced_slots);
  enc.u32_array(shape.calendar);

  // One fit gives every member the same shape and training-week count, so
  // the per-field arrays below need no per-member framing and restore as
  // bulk reads: consecutive per-member appends produce the same bytes as one
  // flat array, which the decoder reads in one memcpy.
  std::vector<FittedParts> parts;
  parts.reserve(members_.size());
  for (const auto& member : members_) parts.push_back(member->fitted_parts());
  const std::size_t weeks = parts.empty() ? 0 : parts[0].reference.size();
  for (const FittedParts& p : parts) {
    require(p.models.size() == shape.groups &&
                p.reference.size() == weeks &&
                p.positions.size() == shape.positions,
            "DetectorFleet::save: members differ in shape or training weeks");
  }
  enc.u64(weeks);
  for (const FittedParts& p : parts) {
    for (const KldModel& m : p.models) enc.f64_array(m.histogram().edges());
  }
  for (const FittedParts& p : parts) {
    for (const KldModel& m : p.models) enc.f64_array(m.baseline());
  }
  for (const FittedParts& p : parts) enc.f64_array(p.reference);
  for (const FittedParts& p : parts) {
    for (const KldModel& m : p.models) enc.f64(m.threshold());
  }
  for (const FittedParts& p : parts) enc.u32_array(p.positions);
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
  if (fleet.family_ != "kld") {
    o.reduced_slots = dec.count("kld-lite slots", 1u << 20);
  }
  // The one place decoded detector configs are validated: the prototype
  // build checks the options, and restore_parts each member's rows.  A
  // precondition they break (a significance out of (0,1), unsorted edges)
  // marks a malformed checkpoint, not a bad call.
  try {
    const std::unique_ptr<ScoringDetector> prototype =
        make_detector(fleet.family_, o);
    const Shape shape = shape_of(*prototype, o);
    const std::vector<std::uint32_t> calendar =
        dec.u32_array("ckld slot groups", shape.calendar.size());
    if (!std::equal(calendar.begin(), calendar.end(), shape.calendar.begin(),
                    shape.calendar.end())) {
      throw DataError(
          "checkpoint: the ckld price calendar differs from this build's");
    }
    const std::size_t weeks = dec.count("train weeks", 1u << 20);
    const std::size_t g = shape.groups;
    const std::size_t bins = o.kld.bins;
    const std::vector<double> edges =
        dec.f64_array("detector edges", count * g, bins + 1);
    const std::vector<double> baselines =
        dec.f64_array("detector baselines", count * g, bins);
    const std::vector<double> references =
        dec.f64_array("detector references", count, weeks);
    const std::vector<double> thresholds =
        dec.f64_array("detector thresholds", count * g);
    const std::vector<std::uint32_t> positions =
        dec.u32_array("kld-lite positions", count * shape.positions);

    fleet.members_.resize(count);
    parallel_for(
        count,
        [&](std::size_t i) {
          std::unique_ptr<ScoringDetector> member =
              make_detector(fleet.family_, o);
          member->restore_parts({
              .edges = row(edges, i, g * (bins + 1)),
              .baselines = row(baselines, i, g * bins),
              .reference = row(references, i, weeks),
              .thresholds = row(thresholds, i, g),
              .positions = row(positions, i, shape.positions),
          });
          fleet.members_[i] = std::move(member);
        },
        threads);
  } catch (const InvalidArgument& e) {
    throw DataError(std::string("checkpoint: ") + e.what());
  }
  return fleet;
}

}  // namespace fdeta::core
