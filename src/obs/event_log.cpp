#include "obs/event_log.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace fdeta::obs {

namespace {

/// Appends std::to_chars(value, format...) to `out`, without a temporary
/// string.  64 bytes hold any integer and any double at 17 significant
/// digits with its sign and exponent.
template <typename T, typename... Format>
void append_chars(std::string& out, T value, Format... format) {
  char buf[64];
  const std::to_chars_result end =
      std::to_chars(buf, buf + sizeof(buf), value, format...);
  out.append(buf, end.ptr);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void EventFields::key(std::string_view k) {
  body_ += ",\"";
  body_ += json_escape(k);
  body_ += "\":";
}

EventFields& EventFields::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

EventFields& EventFields::u64(std::string_view k, std::uint64_t value) {
  key(k);
  append_chars(body_, value);
  return *this;
}

EventFields& EventFields::i64(std::string_view k, std::int64_t value) {
  key(k);
  append_chars(body_, value);
  return *this;
}

EventFields& EventFields::f64(std::string_view k, double value) {
  if (!std::isfinite(value)) {
    return str(k, value > 0.0 ? "inf" : (value < 0.0 ? "-inf" : "nan"));
  }
  key(k);
  // chars_format::general at precision 17 is printf's %.17g, byte for byte.
  append_chars(body_, value, std::chars_format::general, 17);
  return *this;
}

EventFields& EventFields::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

EventFields& EventFields::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

void EventLog::emit(std::string_view event, const EventFields& fields) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  std::string line = "{\"schema\":";
  line += std::to_string(kEventSchemaVersion);
  line += ",\"seq\":";
  line += std::to_string(next_seq_++);
  line += ",\"event\":\"";
  line += json_escape(event);
  line += '"';
  line += fields.body();
  line += '}';
  lines_.push_back(std::move(line));
}

std::size_t EventLog::size() const {
  std::lock_guard lock(mutex_);
  return lines_.size();
}

std::vector<std::string> EventLog::lines() const {
  std::lock_guard lock(mutex_);
  return lines_;
}

std::string EventLog::to_jsonl() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

void EventLog::write(std::ostream& out) const { out << to_jsonl(); }

void EventLog::clear() {
  std::lock_guard lock(mutex_);
  lines_.clear();
  next_seq_ = 1;
}

EventLog& default_event_log() {
  static EventLog* log = new EventLog();  // leaked, as Tracer::instance()
  return *log;
}

}  // namespace fdeta::obs
