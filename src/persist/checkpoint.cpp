#include "persist/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.h"
#include "obs/trace.h"
#include "persist/binary_io.h"

namespace fdeta::persist {

namespace {

// Odd, so the multiply is a bijection of the 64-bit lane state.
constexpr std::uint64_t kPrime = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kSeed = 0x243F6A8885A308D3ull;

// Sections move in chunks of this many bytes: each chunk is hashed while
// still in cache from its copy.  A multiple of the 32-byte lane stride, and
// the most a reader allocates ahead of the bytes the stream has delivered.
constexpr std::size_t kChunkBytes = std::size_t{1} << 18;

constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * kPrime;
  return h ^ (h >> 32);
}

std::uint64_t load_le(const char* p) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof(w));
  } else {
    for (int i = 7; i >= 0; --i) {
      w = (w << 8) | static_cast<unsigned char>(p[i]);
    }
  }
  return w;
}

void store_le(char* p, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((w >> (8 * i)) & 0xFF);
}

}  // namespace

/// Incremental section_checksum.  Every update() but the last must pass a
/// multiple of 32 bytes, so whole blocks feed the four lanes in step.
class SectionHash {
 public:
  void update(const char* p, std::size_t n) {
    std::uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    for (; n >= 32; p += 32, n -= 32) {
      a = mix(a, load_le(p));
      b = mix(b, load_le(p + 8));
      c = mix(c, load_le(p + 16));
      d = mix(d, load_le(p + 24));
    }
    lanes_[0] = a, lanes_[1] = b, lanes_[2] = c, lanes_[3] = d;
    // The end of the section: leftover words feed lanes 0, 1, 2 in turn,
    // leftover bytes form the zero-padded tail word.
    for (std::size_t lane = 0; n >= 8; ++lane, p += 8, n -= 8) {
      lanes_[lane] = mix(lanes_[lane], load_le(p));
    }
    if (n > 0) {
      char word[8] = {};
      std::memcpy(word, p, n);
      tail_ = load_le(word);
    }
  }

  std::uint64_t finish(std::uint64_t length) const {
    std::uint64_t h = lanes_[0];
    h = mix(h, lanes_[1]);
    h = mix(h, lanes_[2]);
    h = mix(h, lanes_[3]);
    h = mix(h, tail_);
    return mix(h, length);
  }

 private:
  std::uint64_t lanes_[4] = {kSeed, kSeed + 1, kSeed + 2, kSeed + 3};
  std::uint64_t tail_ = 0;
};

const char* to_string(Section section) {
  switch (section) {
    case Section::kPipeline: return "pipeline";
    case Section::kOnlineMonitor: return "online-monitor";
  }
  return "?";
}

std::uint64_t section_checksum(std::string_view bytes) {
  SectionHash hash;
  hash.update(bytes.data(), bytes.size());
  return hash.finish(bytes.size());
}

CheckpointWriter::CheckpointWriter(std::ostream& out, Section section)
    : out_(out) {
  Encoder header;
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kFormatVersion);
  header.u32(static_cast<std::uint32_t>(section));
  out_.write(header.bytes().data(),
             static_cast<std::streamsize>(header.bytes().size()));
  if (!out_) throw DataError("checkpoint: write failed");
}

void CheckpointWriter::put_u64(std::uint64_t v) {
  char bytes[8];
  store_le(bytes, v);
  out_.write(bytes, sizeof(bytes));
}

void CheckpointWriter::write(std::string_view bytes) {
  obs::TraceSpan span("persist.write_checkpoint", "persist");
  put_u64(bytes.size());
  SectionHash hash;
  for (std::size_t at = 0; at < bytes.size(); at += kChunkBytes) {
    const std::size_t n = std::min(kChunkBytes, bytes.size() - at);
    hash.update(bytes.data() + at, n);
    out_.write(bytes.data() + at, static_cast<std::streamsize>(n));
  }
  put_u64(hash.finish(bytes.size()));
  if (!out_) throw DataError("checkpoint: write failed");
}

template <class T>
void CheckpointWriter::write_words(std::span<const T> values) {
  static_assert(sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    write(std::string_view(reinterpret_cast<const char*>(values.data()),
                           values.size() * sizeof(T)));
  } else {
    Encoder enc;  // big-endian host: the wire words need their bytes swapped
    for (const T v : values) enc.u64(std::bit_cast<std::uint64_t>(v));
    write(enc.bytes());
  }
}

void CheckpointWriter::write(std::span<const double> values) {
  write_words(values);
}

void CheckpointWriter::write(std::span<const std::uint64_t> values) {
  write_words(values);
}

CheckpointReader::CheckpointReader(std::istream& in, Section expected_section)
    : in_(in) {
  obs::TraceSpan span("persist.read_checkpoint", "persist");
  char header[16];
  in_.read(header, sizeof(header));
  const auto got = static_cast<std::size_t>(in_.gcount());
  if (got < kMagic.size() ||
      std::string_view(header, kMagic.size()) != kMagic) {
    throw DataError("checkpoint: bad magic (not a model checkpoint)");
  }
  if (got != sizeof(header)) throw DataError("checkpoint: truncated header");
  Decoder fields(std::string_view(header + kMagic.size(), 8));
  const std::uint32_t version = fields.u32();
  if (version != kFormatVersion) {
    throw DataError("checkpoint: format version " + std::to_string(version) +
                    " unsupported (this build reads version " +
                    std::to_string(kFormatVersion) + " only); refit the model");
  }
  const std::uint32_t section = fields.u32();
  if (section != static_cast<std::uint32_t>(expected_section)) {
    throw DataError("checkpoint: holds section " + std::to_string(section) +
                    ", expected " + std::string(to_string(expected_section)));
  }
}

std::uint64_t CheckpointReader::get_u64(const char* what) {
  char bytes[8];
  in_.read(bytes, sizeof(bytes));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(bytes))) {
    throw DataError("checkpoint: truncated " + std::string(what) +
                    " of section " + std::to_string(index_));
  }
  return load_le(bytes);
}

void CheckpointReader::verify(const SectionHash& hash, std::uint64_t length) {
  if (hash.finish(length) != get_u64("checksum")) {
    throw DataError("checkpoint: section " + std::to_string(index_) +
                    " checksum mismatch (corrupted file)");
  }
  ++index_;
}

template <class Buffer>
void CheckpointReader::read_body(Buffer& out, std::size_t bytes,
                                 SectionHash& hash) {
  using T = typename Buffer::value_type;
  const auto read_chunk = [&](char* dst, std::size_t n) {
    in_.read(dst, static_cast<std::streamsize>(n));
    if (in_.gcount() != static_cast<std::streamsize>(n)) {
      throw DataError("checkpoint: truncated section " +
                      std::to_string(index_) + " (its length promised " +
                      std::to_string(bytes) + " bytes)");
    }
    hash.update(dst, n);
  };
  const std::streamsize avail = in_.rdbuf()->in_avail();
  if (avail > 0 && static_cast<std::uint64_t>(avail) >= bytes) {
    // The stream holds the whole section: read it straight into place.
    out.resize(bytes / sizeof(T));
    char* dst = reinterpret_cast<char*>(out.data());
    for (std::size_t at = 0; at < bytes; at += kChunkBytes) {
      read_chunk(dst + at, std::min(kChunkBytes, bytes - at));
    }
    return;
  }
  // The stream cannot vouch for the length (a pipe, or a corrupted length
  // field): allocate chunk by chunk as bytes arrive, then assemble.
  std::vector<std::string> chunks;
  for (std::size_t at = 0; at < bytes; at += kChunkBytes) {
    std::string& chunk =
        chunks.emplace_back(std::min(kChunkBytes, bytes - at), '\0');
    read_chunk(chunk.data(), chunk.size());
  }
  out.resize(bytes / sizeof(T));
  char* dst = reinterpret_cast<char*>(out.data());
  for (const std::string& chunk : chunks) {
    std::memcpy(dst, chunk.data(), chunk.size());
    dst += chunk.size();
  }
}

std::string CheckpointReader::read() {
  obs::TraceSpan span("persist.read_checkpoint", "persist");
  const std::uint64_t length = get_u64("length");
  SectionHash hash;
  std::string out;
  read_body(out, static_cast<std::size_t>(length), hash);
  verify(hash, length);
  return out;
}

template <class T>
void CheckpointReader::read_words(std::vector<T>& out, std::size_t count) {
  static_assert(sizeof(T) == 8);
  obs::TraceSpan span("persist.read_checkpoint", "persist");
  const std::uint64_t length = get_u64("length");
  if (count > std::numeric_limits<std::size_t>::max() / sizeof(T) ||
      length != count * sizeof(T)) {
    throw DataError("checkpoint: section " + std::to_string(index_) +
                    " holds " + std::to_string(length) +
                    " bytes, but the decoded counts need " +
                    std::to_string(count) + " words");
  }
  SectionHash hash;
  read_body(out, count * sizeof(T), hash);
  verify(hash, length);
  if constexpr (std::endian::native != std::endian::little) {
    for (T& v : out) {
      v = std::bit_cast<T>(load_le(reinterpret_cast<const char*>(&v)));
    }
  }
}

void CheckpointReader::read(std::vector<double>& out, std::size_t count) {
  read_words(out, count);
}

void CheckpointReader::read(std::vector<std::uint64_t>& out,
                            std::size_t count) {
  read_words(out, count);
}

}  // namespace fdeta::persist
