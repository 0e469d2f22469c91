// The detector registry: string name -> ScoringDetector factory.
//
// Every fleet of detectors (core::DetectorFleet, behind FdetaPipeline,
// OnlineMonitor and the feeder layer) builds its members through this one
// factory, so adding a detector family means registering it here and it
// shows up everywhere: the golden detector x attack matrix, the generic
// contract suite in test_property_invariants, the shard-equivalence
// differential tests, and the per-detector bench throughput gates.
//
// Kept separate from detector_plugin.h: the registry must include every
// concrete family's config, and the families include detector_plugin.h.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/detector_plugin.h"
#include "core/kld_detector.h"
#include "core/reduced_kld_detector.h"

namespace fdeta::core {

/// Knobs for every registered family, bundled so pipeline/monitor configs
/// can carry one value whatever detector they run.  `kld` feeds "kld",
/// "ckld" (bins/significance/epsilon/out-of-support carry over; grouping is
/// the Nightsaver peak/off-peak calendar) and the histogram half of
/// "kld-lite".
struct DetectorOptions {
  KldDetectorConfig kld{};
  /// "kld-lite": slot-of-week positions kept per week.
  std::size_t reduced_slots = 48;
};

/// The registered detector ids, in canonical order.
std::span<const std::string_view> registered_detector_names();

/// True if `name` is a registered detector id.
bool is_registered_detector(std::string_view name);

/// The registered ids joined for error/usage text: "kld, ckld, ...".
std::string registered_detector_names_joined();

/// Applies one `--detector-opt key=value` pair to `options`.  Keys are
/// namespaced per family (`kld.bins`, `kld.significance`, `kld.epsilon`,
/// `kld.exclude_out_of_support`, `kld-lite.slots`); the kld.* keys also feed
/// "ckld" and the histogram half of "kld-lite", mirroring how
/// DetectorOptions fans out.  Throws std::invalid_argument naming the
/// known keys on an unknown key, and on an unparsable or out-of-range value.
void apply_detector_option(DetectorOptions& options, std::string_view spec);

/// The keys apply_detector_option understands, one per line with the
/// default, for CLI usage text.
std::string detector_option_help();

/// Builds an unfitted detector of the named family.  Throws std::invalid_
/// argument listing registered_detector_names() on an unknown name.
std::unique_ptr<ScoringDetector> make_detector(std::string_view name,
                                               const DetectorOptions& options);

}  // namespace fdeta::core
