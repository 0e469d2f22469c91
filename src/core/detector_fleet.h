// One registry family's fleet of detectors (ROADMAP item 2).
//
// The paper fits its KLD detector once per consumer and scores every new
// week at the control center (Sections VII-A, VII-D).  FdetaPipeline and
// OnlineMonitor run one detector per consumer, hierarchy::FeederMonitor one
// per scored feeder node; each owns exactly one DetectorFleet for them.  The
// fleet builds every member through make_detector(family, options), hands
// members out by index for fitting and scoring, and writes and reads the one
// checkpoint block all three owners share (DESIGN.md §9).
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
  /// "kld" writes its config once, then one bulk array per fitted field;
  /// the other families write the options once, then each member's
  /// save_state payload.
  void save(persist::Encoder& enc) const;

  /// Reads a save() block; the "kld" members are rebuilt on the shared pool
  /// (`threads` caps the parallelism).  Every decoded config is validated
  /// here, and each non-"kld" member must match the fingerprint of a
  /// prototype built from the decoded options.  Throws DataError on any
  /// malformed block.
  static DetectorFleet restore(persist::Decoder& dec, std::size_t threads);

 private:
  void restore_kld(persist::Decoder& dec, std::size_t count,
                   std::size_t threads);

  std::string family_ = "kld";
  DetectorOptions options_{};
  std::vector<std::unique_ptr<ScoringDetector>> members_;
};

}  // namespace fdeta::core
