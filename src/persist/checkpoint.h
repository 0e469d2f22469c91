// Checkpoint file framing for fitted models (the warm-start layer).
//
// The paper fits each detector once on the M x 336 training week-matrix and
// then scores new weeks indefinitely; a fleet head-end therefore fits
// offline (`fdeta fit --save-model`) and serving restores the fitted state
// (`fdeta detect --model`) instead of refitting from raw readings on every
// process start.  A restore should cost about one read of the fitted state.
//
// File layout, format v10 (all integers little-endian; see binary_io.h):
//
//   offset  size  field
//        0     8  magic "FDETAMDL"
//        8     4  format version (kFormatVersion)
//       12     4  section id (what model the file holds)
//       16     -  sections, back to back, each:
//                   8  byte length n
//                   n  bytes: an Encoder payload, or a bulk array of
//                      little-endian 8-byte words
//                   8  section_checksum(bytes)
//
// The owner fixes how many sections it writes and what each holds
// (DESIGN.md §9); every owner's detectors travel as one core::DetectorFleet
// block inside its Encoder payload (v10: every family stores its config
// once, then one array per fitted field across all members).  A bulk
// section is hashed and written straight from the caller's live array, and
// read straight into the caller's destination vector, a chunk at a time: no
// encoder buffer, payload copy or second pass in between.
//
// Readers accept exactly kFormatVersion: refitting is the migration.  They
// validate magic -> version -> section id, then per section length ->
// bytes -> checksum.  A reader never allocates more than one read chunk
// ahead of the bytes the stream has delivered, unless the stream reports
// (std::streambuf::in_avail) that the whole section is already there.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fdeta::persist {

class SectionHash;  // the incremental section_checksum (checkpoint.cpp)

inline constexpr std::string_view kMagic = "FDETAMDL";
/// Bumped on ANY layout change of the frame or of an owner's sections.
inline constexpr std::uint32_t kFormatVersion = 10;

/// What fitted model a checkpoint holds. A reader asks for the section id it
/// expects; a pipeline checkpoint can never be restored into a monitor.
enum class Section : std::uint32_t {
  kPipeline = 1,       ///< FdetaPipeline (detector fleet + weekly stats)
  kOnlineMonitor = 2,  ///< OnlineMonitor (detectors + window state)
};

const char* to_string(Section section);

/// The section checksum.  Four lanes consume the bytes as little-endian u64
/// words (word k feeds lane k mod 4), each step h = (h ^ w) * P;
/// h ^= h >> 32.  A step is a bijection of the lane state and of the word,
/// so changing any single word - the zero-padded tail word included - always
/// changes the result.  The lanes, the tail word and the byte length are
/// folded together at the end.  Detects truncation and bit rot, not
/// adversarial tampering.
std::uint64_t section_checksum(std::string_view bytes);

/// Writes a checkpoint: the header on construction, then one section per
/// write() call.  Throws DataError on stream failure.
class CheckpointWriter {
 public:
  CheckpointWriter(std::ostream& out, Section section);

  /// One section holding `bytes` (an Encoder payload).
  void write(std::string_view bytes);
  /// One bulk section, hashed and written straight from `values`.
  void write(std::span<const double> values);
  void write(std::span<const std::uint64_t> values);

 private:
  template <class T>
  void write_words(std::span<const T> values);
  void put_u64(std::uint64_t v);

  std::ostream& out_;
};

/// Reads a checkpoint written by CheckpointWriter, section by section, in
/// the order they were written.  Throws DataError on bad magic, any version
/// but kFormatVersion, a section id mismatch, truncation, a section length
/// that disagrees with the caller's counts, or a checksum mismatch.
class CheckpointReader {
 public:
  CheckpointReader(std::istream& in, Section expected_section);

  /// The next section's bytes (an Encoder payload), checksum verified.
  std::string read();
  /// Reads the next section straight into `out`, resized to `count`
  /// elements; the section must hold exactly that many words.
  void read(std::vector<double>& out, std::size_t count);
  void read(std::vector<std::uint64_t>& out, std::size_t count);

 private:
  template <class T>
  void read_words(std::vector<T>& out, std::size_t count);
  template <class Buffer>
  void read_body(Buffer& out, std::size_t bytes, SectionHash& hash);
  std::uint64_t get_u64(const char* what);
  void verify(const SectionHash& hash, std::uint64_t length);

  std::istream& in_;
  std::size_t index_ = 0;  ///< sections read so far (for error messages)
};

}  // namespace fdeta::persist
