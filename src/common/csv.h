// Minimal CSV reading/writing for dataset import/export.
//
// The real CER data ships as "meter_id day_code consumption" rows; our
// examples export/import the synthetic dataset in a comparable long format so
// downstream users can substitute the licensed data.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace fdeta {

/// Splits one CSV line on `delim`.  No quoting support: the formats handled
/// here are purely numeric.
std::vector<std::string> split_csv_line(std::string_view line, char delim = ',');

/// Parses a string as a finite double; throws DataError with context on
/// failure and on "inf" or "nan".
double parse_double(std::string_view token, std::string_view context);

/// Parses a string as a non-negative integer; throws DataError on failure.
long parse_long(std::string_view token, std::string_view context);

/// Reads all lines from a stream, stripping trailing '\r'.  Trailing blank
/// lines are ignored; an *interior* blank line throws DataError, because
/// silently dropping it would shift the position of every subsequent row
/// (and with it the slot/week alignment of meter data).
std::vector<std::string> read_lines(std::istream& in);

/// Writes rows of doubles as CSV with the given header (header skipped if
/// empty).
void write_csv(std::ostream& out, const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& rows);

}  // namespace fdeta
