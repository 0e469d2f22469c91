#include "common/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace fdeta {

std::size_t env_size(const std::string& name, std::size_t default_value) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return default_value;
  // strtoull negates a minus sign modulo 2^64 and saturates on overflow, so
  // "-1" and "18446744073709551616" would both read as 2^64 - 1.
  if (std::strchr(raw, '-') != nullptr) return default_value;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE) return default_value;
  return static_cast<std::size_t>(value);
}

double env_double(const std::string& name, double default_value) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return default_value;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  // strtod also accepts "nan", "inf" and a minus sign; no caller reads a
  // non-finite or negative value (each reads a budget), so those fall back.
  if (end == raw || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    return default_value;
  }
  return value;
}

}  // namespace fdeta
