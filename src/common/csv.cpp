#include "common/csv.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.h"

namespace fdeta {

std::vector<std::string> split_csv_line(std::string_view line, char delim) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      break;
    }
    fields.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

double parse_double(std::string_view token, std::string_view context) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  // Skip leading whitespace, which from_chars rejects.
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  // from_chars also accepts "inf" and "nan", which no input may carry.
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    throw DataError("failed to parse double '" + std::string(token) + "' in " +
                    std::string(context));
  }
  return value;
}

long parse_long(std::string_view token, std::string_view context) {
  long value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw DataError("failed to parse integer '" + std::string(token) +
                    "' in " + std::string(context));
  }
  return value;
}

std::vector<std::string> read_lines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  std::size_t blank_at = 0;  // 1-based line number of the first pending blank
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) {
      // Benign only if nothing follows: remember the position and decide
      // when the next non-blank line (if any) arrives.
      if (blank_at == 0) blank_at = line_no;
      continue;
    }
    if (blank_at != 0) {
      // Dropping an interior blank would silently shift every subsequent
      // row - for slot-indexed meter data that de-aligns whole weeks - so
      // reject the file instead.
      throw DataError("read_lines: blank line " + std::to_string(blank_at) +
                      " before line " + std::to_string(line_no) +
                      " (interior blank lines would shift row positions)");
    }
    lines.push_back(line);
  }
  return lines;
}

void write_csv(std::ostream& out, const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& rows) {
  if (!header.empty()) {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (i) out << ',';
      out << header[i];
    }
    out << '\n';
  }
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << row[i];
    }
    out << '\n';
  }
}

}  // namespace fdeta
