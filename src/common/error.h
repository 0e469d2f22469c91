// Error types for the F-DETA library.
//
// Following the C++ Core Guidelines (E.2/E.14) we throw exceptions derived
// from std::runtime_error / std::logic_error to signal that a function cannot
// perform its task, with domain-specific types so callers can discriminate.
#pragma once

#include <stdexcept>
#include <string>

namespace fdeta {

/// Base class for all errors raised by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition (bad sizes, ranges, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A numerical routine could not converge or produced a degenerate result.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Malformed external data (CSV parse failures, truncated series, ...).
class DataError : public Error {
 public:
  explicit DataError(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `what` unless `condition` holds.
inline void require(bool condition, const std::string& what) {
  if (!condition) throw InvalidArgument(what);
}

/// As above for a literal message, which becomes a string only when the
/// check fails: a check that holds costs one branch, not a heap-allocated
/// message, on the per-score paths.
inline void require(bool condition, const char* what) {
  if (!condition) throw InvalidArgument(what);
}

}  // namespace fdeta
