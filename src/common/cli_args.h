// Minimal --key value argument parsing, shared by the fdeta CLI and any
// downstream tools embedding the library.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace fdeta {

class CliArgs {
 public:
  /// Parses argv[first..argc) as "--key value" pairs and bare boolean
  /// "--flag"s.  A --flag followed by another --flag (or by nothing) is
  /// boolean: has() is true and its value is the empty string.  A repeated
  /// flag keeps every occurrence (get_all) with the last one winning for the
  /// scalar accessors.  Throws InvalidArgument on a token that is not a
  /// --flag.
  CliArgs(int argc, const char* const* argv, int first = 1);

  /// String value, or `fallback` when the flag is absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Every value of a repeatable flag, in command-line order (empty when the
  /// flag is absent).
  std::vector<std::string> get_all(const std::string& key) const;

  /// Integer value (DataError on a malformed number), or `fallback`.
  long get_long(const std::string& key, long fallback) const;

  /// A count: a non-negative integer value, or `fallback`.  DataError
  /// naming the flag on a negative or malformed value.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;

  /// Double value (DataError on a malformed number), or `fallback`.
  double get_double(const std::string& key, double fallback) const;

  /// String value; InvalidArgument when the flag is absent.
  std::string require_value(const std::string& key) const;

  bool has(const std::string& key) const { return values_.contains(key); }
  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;      // last occurrence wins
  std::vector<std::pair<std::string, std::string>> ordered_;  // every one
};

}  // namespace fdeta
