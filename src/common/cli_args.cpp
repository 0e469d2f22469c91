#include "common/cli_args.h"

#include <cstring>

#include "common/csv.h"
#include "common/error.h"

namespace fdeta {

CliArgs::CliArgs(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc;) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw InvalidArgument(std::string("expected --flag, got ") + argv[i]);
    }
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      values_[argv[i] + 2] = "";  // bare boolean flag
      ordered_.emplace_back(argv[i] + 2, "");
      i += 1;
    } else {
      values_[argv[i] + 2] = argv[i + 1];
      ordered_.emplace_back(argv[i] + 2, argv[i + 1]);
      i += 2;
    }
  }
}

std::vector<std::string> CliArgs::get_all(const std::string& key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : ordered_) {
    if (k == key) out.push_back(v);
  }
  return out;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long CliArgs::get_long(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_long(it->second, "--" + key);
}

std::size_t CliArgs::get_count(const std::string& key,
                               std::size_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const long value = parse_long(it->second, "--" + key);
  if (value < 0) {
    throw DataError("--" + key + " must be a non-negative count, got " +
                    it->second);
  }
  return static_cast<std::size_t>(value);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_double(it->second, "--" + key);
}

std::string CliArgs::require_value(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw InvalidArgument("missing required flag --" + key);
  }
  return it->second;
}

}  // namespace fdeta
