// The detector registry: the one list of family names.
//
// Every fleet of detectors (core::DetectorFleet, behind FdetaPipeline,
// OnlineMonitor and the feeder layer) resolves its family here, and
// make_detector builds the standalone family classes by the same names, so
// a registered family shows up everywhere: the golden detector x attack
// matrix, the generic contract suite in test_property_invariants, the
// shard-equivalence differential tests, and the per-detector bench
// throughput gates.
//
// Last in the header order (configs, fleet, family classes, registry): it
// names every family class.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/conditioned_kld_detector.h"
#include "core/kld_detector.h"
#include "core/reduced_kld_detector.h"

namespace fdeta::core {

/// The registered detector ids, in canonical order (DetectorFleet's family
/// routing follows it).
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
/// known keys on an unknown key, and on an unparsable or out-of-range value
/// (the ranges validate_kld_config and the kld-lite family check).
void apply_detector_option(DetectorOptions& options, std::string_view spec);

/// The keys apply_detector_option understands, one per line with the
/// default, for CLI usage text.
std::string detector_option_help();

/// Builds an unfitted detector of the named family.  Throws std::invalid_
/// argument listing registered_detector_names() on an unknown name.
std::unique_ptr<ScoringDetector> make_detector(std::string_view name,
                                               const DetectorOptions& options);

}  // namespace fdeta::core
