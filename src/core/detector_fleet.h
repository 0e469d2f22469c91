// One registry family's fleet of detectors.
//
// The paper fits its KLD detector once per consumer and scores every new
// week at the control center (Sections VII-A, VII-D).  FdetaPipeline and
// OnlineMonitor run one detector per consumer, hierarchy::FeederMonitor one
// per scored feeder node; each owns exactly one DetectorFleet for them.  The
// fleet builds every member through make_detector(family, options), hands
// members out by index for fitting and scoring, and writes and reads the one
// checkpoint block all three owners share (DESIGN.md §9).  It is the only
// code that knows how a fitted detector is stored: a family exposes its
// fitted parts and adopts decoded rows, nothing more.
//
// Members are ordinary ScoringDetector objects, so scoring a member costs
// what scoring a bare detector costs.  Distinct members may be fitted
// concurrently; a fitted fleet is safe to score from any thread.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/detector_registry.h"

namespace fdeta::persist {
class Decoder;
class Encoder;
}  // namespace fdeta::persist

namespace fdeta::core {

class DetectorFleet {
 public:
  /// An empty fleet of the default "kld" family.
  DetectorFleet() = default;

  /// A fleet of `count` members of the registered `family`, each to be
  /// built by fit().  Throws std::invalid_argument on an unknown family and
  /// InvalidArgument on options the family rejects.
  DetectorFleet(std::string family, DetectorOptions options,
                std::size_t count);

  /// Builds member i with make_detector(family, options) and fits it on
  /// `training`.  Safe concurrently for distinct i.
  void fit(std::size_t i, std::span<const Kw> training);

  /// Member i; fit() or restore() must have built it.
  const ScoringDetector& operator[](std::size_t i) const {
    return *members_[i];
  }
  std::size_t size() const { return members_.size(); }
  const std::string& family() const { return family_; }
  const DetectorOptions& options() const { return options_; }

  /// Writes the fleet's checkpoint block; every member must be fitted.
  /// The config once (and ckld's slot->group table), then one bulk array
  /// per fitted field across all members.
  void save(persist::Encoder& enc) const;

  /// Reads a save() block, rebuilding every member from its rows in one
  /// pass on the shared pool (`threads` caps the parallelism).  Every
  /// decoded config is validated here, and a ckld table must equal this
  /// build's calendar.  Throws DataError on any malformed block.
  static DetectorFleet restore(persist::Decoder& dec, std::size_t threads);

 private:
  std::string family_ = "kld";
  DetectorOptions options_{};
  std::vector<std::unique_ptr<ScoringDetector>> members_;
};

}  // namespace fdeta::core
