// Structured domain-event log: the per-decision forensic record that the
// deliberately cardinality-free metrics registry (obs/metrics.h) refuses to
// hold.  WHY consumer 1004's week 24 fired - its score, threshold and
// direction - and WHICH balance-tree nodes an investigation visited are
// events here, one JSON object per line (JSONL).
//
// Determinism contract: events carry logical time only (week / slot /
// sequence number), never wall-clock, and every field is emitted in the
// caller's insertion order with fixed formatting (%.17g doubles).  A
// fixed-seed run therefore produces a byte-identical log, which the golden
// tests pin.
//
// Schema policy: every line starts {"schema":N,"seq":M,"event":"..."}.  N is
// bumped on ANY change to an existing event's fields or their order; adding
// a new event kind is not a schema change.  The event inventory lives in
// DESIGN.md ("Tracing & event log").
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fdeta::obs {

inline constexpr std::uint32_t kEventSchemaVersion = 2;

/// Escapes `s` for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

/// Append-only JSON object body builder with caller-controlled field order.
/// Method names mirror persist::Encoder (str/u64/i64/f64) so call sites read
/// the same and integer overload ambiguity never arises.
class EventFields {
 public:
  EventFields& str(std::string_view key, std::string_view value);
  EventFields& u64(std::string_view key, std::uint64_t value);
  EventFields& i64(std::string_view key, std::int64_t value);
  /// %.17g (round-trip exact); non-finite values are emitted as the strings
  /// "inf"/"-inf"/"nan" since bare tokens would break JSON parsers.
  EventFields& f64(std::string_view key, double value);
  EventFields& boolean(std::string_view key, bool value);
  /// Pre-serialized JSON (a nested array/object); the caller guarantees
  /// validity.
  EventFields& raw(std::string_view key, std::string_view json);

  /// The accumulated ",\"k\":v,..." body (empty when no fields were added).
  const std::string& body() const { return body_; }

 private:
  void key(std::string_view k);
  std::string body_;
};

/// A bounded-purpose, thread-safe JSONL sink.  Disabled by default: emit()
/// is a single relaxed load and nothing else until enable() is called, so
/// instrumented code can emit unconditionally.
class EventLog {
 public:
  void enable() { enabled_.store(true, std::memory_order_release); }
  void disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends one line: {"schema":S,"seq":N,"event":"<event>",<fields...>}.
  /// Sequence numbers start at 1 and increase in emission order.  No-op
  /// while disabled.
  void emit(std::string_view event, const EventFields& fields = {});

  std::size_t size() const;
  std::vector<std::string> lines() const;
  /// All lines, each terminated with '\n'.
  std::string to_jsonl() const;
  void write(std::ostream& out) const;
  /// Drops all lines and resets the sequence counter to 1.
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
  std::uint64_t next_seq_ = 1;
};

/// The process-wide log: components not handed an explicit sink emit here.
/// The fdeta CLI enables it for --events-out.
EventLog& default_event_log();

}  // namespace fdeta::obs
