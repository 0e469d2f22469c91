// Endian-stable binary encoding primitives for model checkpoints.
//
// Fitted pipeline state (histogram edges, baseline distributions, training
// KLD vectors, thresholds, monitor counters) must restore bit-exactly on any
// host, so every integer is written byte-by-byte least-significant-first and
// every double travels as the little-endian bytes of its IEEE-754 bit
// pattern - the in-memory representation never leaks into the format.
//
// Encoder appends the small state of a checkpoint to an in-memory buffer
// (checkpoint.h frames it as one section; bulk arrays bypass it entirely).
// Decoder walks a byte view with bounds checks and throws DataError on any
// overrun, so a truncated or corrupted section can never read uninitialised
// memory - and checks every element count against the bytes left BEFORE it
// allocates, so a corrupted count can never drive a large allocation.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fdeta::persist {

/// Appends fixed-width little-endian values to a growing byte buffer.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 bit pattern, little-endian (bit-exact round trip).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Element count (u64) followed by each element as f64.
  void doubles(std::span<const double> values);
  /// Byte length (u64) followed by the raw bytes (detector ids and config
  /// fingerprints).
  void str(std::string_view value);

  /// Raw arrays WITHOUT a leading count: the caller's schema fixes the
  /// element count (e.g. consumers x bins), so the decoder reads the whole
  /// block in one bounds-checked memcpy instead of a per-element loop.  On a
  /// little-endian host the append IS a memcpy; the big-endian fallback
  /// keeps the format stable.
  void f64_array(std::span<const double> values);
  void u32_array(std::span<const std::uint32_t> values);

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Reads the Encoder format back; throws DataError on overrun.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64() { return std::bit_cast<double>(u64()); }

  /// Reads a u64 count and validates it against `max_count` (a structural
  /// sanity bound on config-sized values such as bins or stride).
  std::size_t count(std::string_view what, std::size_t max_count);
  /// Reads a doubles() sequence (count bounded by `max_count` and by the
  /// bytes left, before allocating).
  std::vector<double> doubles(std::string_view what, std::size_t max_count);
  /// Reads a str() sequence; `max_len` bounds the byte length.
  std::string str(std::string_view what, std::size_t max_len);

  /// Throws DataError unless `count` items of at least `width` bytes each
  /// fit in the bytes left (overflow-safe).  Call it with a count read from
  /// the checkpoint before sizing anything by that count.
  void require_fits(std::string_view what, std::size_t count,
                    std::size_t width) const;

  /// Reads a countless Encoder::*_array block of `count` x `width`
  /// elements, checked against the bytes left before anything is allocated
  /// (one memcpy on little-endian hosts).
  std::vector<double> f64_array(std::string_view what, std::size_t count,
                                std::size_t width = 1);
  std::vector<std::uint32_t> u32_array(std::string_view what,
                                       std::size_t count);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Throws DataError if any section bytes were left unread (a section that
  /// decodes "successfully" but short is as corrupt as a truncated one).
  void require_exhausted(std::string_view what) const;

 private:
  void need(std::size_t n) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Throws DataError unless every decoded value is finite and, when
/// `non_negative`, >= 0: a checksum-valid NaN is as malformed as a bad count.
void require_finite(std::string_view what, std::span<const double> values,
                    bool non_negative = false);

}  // namespace fdeta::persist
