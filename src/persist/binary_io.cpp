#include "persist/binary_io.h"

#include <cmath>
#include <cstring>

#include "common/error.h"

namespace fdeta::persist {

namespace {

/// a * b <= limit, without computing a possibly overflowing product.
bool product_fits(std::size_t a, std::size_t b, std::size_t limit) {
  return a == 0 || b <= limit / a;
}

}  // namespace

void Encoder::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void Encoder::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void Encoder::str(std::string_view value) {
  u64(value.size());
  buf_.append(value.data(), value.size());
}

void Encoder::f64_array(std::span<const double> values) {
  if constexpr (std::endian::native == std::endian::little) {
    buf_.append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(double));
  } else {
    for (double v : values) f64(v);
  }
}

void Encoder::u32_array(std::span<const std::uint32_t> values) {
  if constexpr (std::endian::native == std::endian::little) {
    buf_.append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(std::uint32_t));
  } else {
    for (std::uint32_t v : values) u32(v);
  }
}

void Decoder::need(std::size_t n) const {
  if (remaining() < n) {
    throw DataError("checkpoint: truncated section (wanted " +
                    std::to_string(n) + " bytes, " +
                    std::to_string(remaining()) + " left)");
  }
}

std::uint8_t Decoder::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t Decoder::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_++]))
         << shift;
  }
  return v;
}

std::uint64_t Decoder::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_++]))
         << shift;
  }
  return v;
}

std::size_t Decoder::count(std::string_view what, std::size_t max_count) {
  const std::uint64_t n = u64();
  if (n > max_count) {
    throw DataError("checkpoint: implausible " + std::string(what) +
                    " count " + std::to_string(n));
  }
  return static_cast<std::size_t>(n);
}

std::string Decoder::str(std::string_view what, std::size_t max_len) {
  const std::size_t n = count(what, max_len);
  need(n);
  std::string out(bytes_.substr(pos_, n));
  pos_ += n;
  return out;
}

void Decoder::require_fits(std::string_view what, std::size_t count,
                           std::size_t width) const {
  if (!product_fits(count, width, remaining())) {
    throw DataError("checkpoint: " + std::string(what) + " count " +
                    std::to_string(count) + " needs more than the " +
                    std::to_string(remaining()) + " bytes left");
  }
}

std::vector<double> Decoder::f64_array(std::string_view what,
                                       std::size_t count, std::size_t width) {
  if (count == 0) return {};
  // count * width * 8 <= remaining, in two overflow-safe steps.
  require_fits(what, width, sizeof(double));
  require_fits(what, count, width * sizeof(double));
  std::vector<double> out(count * width);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), bytes_.data() + pos_, out.size() * sizeof(double));
    pos_ += out.size() * sizeof(double);
  } else {
    for (auto& v : out) v = f64();
  }
  return out;
}

std::vector<std::uint32_t> Decoder::u32_array(std::string_view what,
                                              std::size_t count) {
  if (count == 0) return {};
  require_fits(what, count, sizeof(std::uint32_t));
  std::vector<std::uint32_t> out(count);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), bytes_.data() + pos_,
                out.size() * sizeof(std::uint32_t));
    pos_ += out.size() * sizeof(std::uint32_t);
  } else {
    for (auto& v : out) v = u32();
  }
  return out;
}

void Decoder::require_exhausted(std::string_view what) const {
  if (remaining() != 0) {
    throw DataError("checkpoint: " + std::string(what) + " left " +
                    std::to_string(remaining()) + " undecoded section bytes");
  }
}

void require_finite(std::string_view what, std::span<const double> values,
                    bool non_negative) {
  for (const double v : values) {
    if (!std::isfinite(v) || (non_negative && v < 0.0)) {
      throw DataError("checkpoint: " + std::string(what) + " must be finite" +
                      (non_negative ? " and >= 0" : ""));
    }
  }
}

}  // namespace fdeta::persist
