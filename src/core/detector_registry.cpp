#include "core/detector_registry.h"

#include <array>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace fdeta::core {

namespace {

constexpr std::array<std::string_view, 3> kNames = {"kld", "ckld", "kld-lite"};

constexpr std::string_view kOptionHelp =
    "  kld.bins=<n>                    histogram bins (default 10)\n"
    "  kld.significance=<a>            alpha in (0,1) for every family's\n"
    "                                  threshold (default 0.05)\n"
    "  kld.epsilon=<e>                 baseline smoothing mass (default 1e-9)\n"
    "  kld.exclude_out_of_support=0|1  out-of-support reading handling\n"
    "                                  (default 1)\n"
    "  kld-lite.slots=<k>              slot-of-week positions kept (default "
    "48)";

[[noreturn]] void bad_option(const std::string& message) {
  throw std::invalid_argument("--detector-opt: " + message +
                              "\nknown keys:\n" + std::string(kOptionHelp));
}

double parse_f64(std::string_view key, std::string_view text) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    bad_option(std::string(key) + ": not a finite number: \"" +
               std::string(text) + "\"");
  }
  return value;
}

std::uint64_t parse_u64(std::string_view key, std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    bad_option(std::string(key) + ": not a non-negative integer: \"" +
               std::string(text) + "\"");
  }
  return value;
}

bool parse_bool(std::string_view key, std::string_view text) {
  if (text == "1" || text == "true") return true;
  if (text == "0" || text == "false") return false;
  bad_option(std::string(key) + ": expected 0/1/true/false, got \"" +
             std::string(text) + "\"");
}

}  // namespace

std::span<const std::string_view> registered_detector_names() {
  return kNames;
}

bool is_registered_detector(std::string_view name) {
  for (const std::string_view known : kNames) {
    if (known == name) return true;
  }
  return false;
}

std::string registered_detector_names_joined() {
  std::string out;
  for (const std::string_view name : kNames) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::string detector_option_help() { return std::string(kOptionHelp); }

void apply_detector_option(DetectorOptions& options, std::string_view spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    bad_option("expected key=value, got \"" + std::string(spec) + "\"");
  }
  const std::string_view key = spec.substr(0, eq);
  const std::string_view value = spec.substr(eq + 1);

  if (key == "kld.bins") {
    const std::uint64_t bins = parse_u64(key, value);
    if (bins < 2 || bins > kMaxKldBins) {
      bad_option("kld.bins: must be in [2, " + std::to_string(kMaxKldBins) +
                 "]");
    }
    options.kld.bins = static_cast<std::size_t>(bins);
  } else if (key == "kld.significance") {
    const double sig = parse_f64(key, value);
    if (!(sig > 0.0 && sig < 1.0)) {
      bad_option("kld.significance: must be in (0,1)");
    }
    options.kld.significance = sig;
  } else if (key == "kld.epsilon") {
    const double eps = parse_f64(key, value);
    if (!(eps >= 0.0)) bad_option("kld.epsilon: must be >= 0");
    options.kld.epsilon = eps;
  } else if (key == "kld.exclude_out_of_support") {
    options.kld.exclude_out_of_support = parse_bool(key, value);
  } else if (key == "kld-lite.slots") {
    const std::uint64_t slots = parse_u64(key, value);
    if (slots < 1 || slots > static_cast<std::uint64_t>(kSlotsPerWeek)) {
      bad_option("kld-lite.slots: must be in [1, 336]");
    }
    options.reduced_slots = static_cast<std::size_t>(slots);
  } else {
    bad_option("unknown key \"" + std::string(key) + "\"");
  }
}

}  // namespace fdeta::core
