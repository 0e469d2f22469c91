// Environment-variable helpers used by the benchmark harnesses to scale the
// experiments (FDETA_CONSUMERS, FDETA_VECTORS, ...).
#pragma once

#include <cstddef>
#include <string>

namespace fdeta {

/// Returns the integer value of environment variable `name`, or
/// `default_value` if unset/unparseable/out of range.
std::size_t env_size(const std::string& name, std::size_t default_value);

/// Returns the finite, non-negative double value of environment variable
/// `name`, or `default_value` if unset, unparseable, non-finite ("nan",
/// "inf") or negative.
double env_double(const std::string& name, double default_value);

}  // namespace fdeta
