// The detector registry: the one list of family names.
//
// Every fleet of detectors (core::DetectorFleet, behind FdetaPipeline,
// OnlineMonitor, the feeder layer and the harness's FleetDetector) resolves
// its family here, so a registered family shows up everywhere: the golden
// detector x attack matrix, the generic contract suite in
// test_property_invariants, the shard-equivalence differential tests, and
// the per-detector bench throughput gates.
//
// Header order: detector_config.h, the fleet, then this file, which needs
// only the configs.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/detector_config.h"

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

}  // namespace fdeta::core
