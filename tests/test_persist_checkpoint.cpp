// Tests of the model checkpoint layer: binary primitives, the v7 section
// frame and its checksum, bit-exact pipeline / monitor / detector round
// trips, rejection of corrupted, truncated, version- and section-mismatched
// checkpoints in bounded time and memory, and the epsilon-smoothing
// finiteness guarantees the format preserves.
#include "persist/checkpoint.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <tuple>

#include "common/error.h"
#include "common/rng.h"
#include "core/conditioned_kld_detector.h"
#include "core/detector_fleet.h"
#include "core/detector_registry.h"
#include "core/kld_detector.h"
#include "core/online_monitor.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "grid/hierarchy/feeder_monitor.h"
#include "grid/topology.h"
#include "meter/weekly_stats.h"
#include "stats/descriptive.h"
#include "obs/metrics.h"
#include "persist/binary_io.h"

namespace fdeta::persist {
namespace {

TEST(BinaryIo, RoundTripsScalarsLittleEndian) {
  Encoder enc;
  enc.u8(0xAB);
  enc.u32(0x01020304u);
  enc.u64(0x0102030405060708ull);
  enc.f64(-1234.5678);
  enc.f64(std::numeric_limits<double>::infinity());

  // Little-endian on the wire regardless of host order.
  const std::string& b = enc.bytes();
  ASSERT_EQ(b.size(), 1u + 4u + 8u + 8u + 8u);
  EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(b[4]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(b[5]), 0x08);

  Decoder dec(b);
  EXPECT_EQ(dec.u8(), 0xAB);
  EXPECT_EQ(dec.u32(), 0x01020304u);
  EXPECT_EQ(dec.u64(), 0x0102030405060708ull);
  EXPECT_EQ(dec.f64(), -1234.5678);  // bit-exact
  EXPECT_TRUE(std::isinf(dec.f64()));
  EXPECT_NO_THROW(dec.require_exhausted("scalars"));
}

TEST(BinaryIo, DoublesRoundTripAndBoundsCheck) {
  Encoder enc;
  const std::vector<double> values{0.0, -0.0, 1e-300, 42.5};
  enc.doubles(values);

  Decoder dec(enc.bytes());
  const auto back = dec.doubles("values", 16);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]));
  }

  // An implausible count must throw, not allocate.
  Decoder dec2(enc.bytes());
  EXPECT_THROW(dec2.doubles("values", 2), DataError);
}

TEST(BinaryIo, TruncationAndTrailingBytesThrow) {
  Encoder enc;
  enc.u64(7);
  Decoder short_dec(std::string_view(enc.bytes()).substr(0, 4));
  EXPECT_THROW(short_dec.u64(), DataError);

  Decoder trailing(enc.bytes());
  trailing.u32();
  EXPECT_THROW(trailing.require_exhausted("payload"), DataError);
}

TEST(BinaryIo, ArrayCountsAreCheckedBeforeAllocating) {
  Encoder enc;
  enc.f64(1.0);
  enc.f64(2.0);
  Decoder dec(enc.bytes());
  // 2^40 x 2^40 doubles overflows any product; the check must not.
  EXPECT_THROW(dec.f64_array("huge", std::size_t{1} << 40,
                             std::size_t{1} << 40),
               DataError);
  EXPECT_THROW(dec.f64_array("three", 3), DataError);
  EXPECT_THROW(dec.require_fits("items", 3, 6), DataError);
  EXPECT_NO_THROW(dec.require_fits("items", 2, 8));
  EXPECT_EQ(dec.f64_array("pair", 1, 2), (std::vector<double>{1.0, 2.0}));
}

std::string framed_pipeline_payload() {
  Encoder enc;
  enc.u64(99);
  std::ostringstream out(std::ios::binary);
  CheckpointWriter(out, Section::kPipeline).write(enc.bytes());
  return out.str();
}

TEST(Checkpoint, FramingRoundTrip) {
  std::stringstream ss(framed_pipeline_payload(),
                       std::ios::in | std::ios::out | std::ios::binary);
  const std::string payload = CheckpointReader(ss, Section::kPipeline).read();
  Decoder dec(payload);
  EXPECT_EQ(dec.u64(), 99u);
  // Header (16) + length (8) + body (8) + checksum (8).
  EXPECT_EQ(framed_pipeline_payload().size(), 40u);
}

TEST(Checkpoint, BulkSectionsRoundTripStraightIntoPlace) {
  const std::vector<double> doubles{1.5, -0.0, 1e300, 42.0, 7.0};
  const std::vector<std::uint64_t> words{0, ~std::uint64_t{0}, 12345};
  std::ostringstream out(std::ios::binary);
  CheckpointWriter writer(out, Section::kOnlineMonitor);
  writer.write(std::span<const double>(doubles));
  writer.write(std::span<const std::uint64_t>(words));
  writer.write(std::span<const double>{});

  std::istringstream in(out.str(), std::ios::binary);
  CheckpointReader reader(in, Section::kOnlineMonitor);
  std::vector<double> d;
  std::vector<std::uint64_t> w;
  std::vector<double> empty{3.0};
  reader.read(d, doubles.size());
  reader.read(w, words.size());
  reader.read(empty, 0);
  ASSERT_EQ(d.size(), doubles.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d[i]),
              std::bit_cast<std::uint64_t>(doubles[i]));
  }
  EXPECT_EQ(w, words);
  EXPECT_TRUE(empty.empty());
}

std::string expect_rejected(std::string bytes) {
  std::stringstream ss(std::move(bytes),
                       std::ios::in | std::ios::out | std::ios::binary);
  try {
    CheckpointReader(ss, Section::kPipeline).read();
  } catch (const DataError& e) {
    return e.what();
  }
  ADD_FAILURE() << "checkpoint was not rejected";
  return {};
}

TEST(Checkpoint, RejectsBadMagic) {
  auto bytes = framed_pipeline_payload();
  bytes[0] = 'X';
  EXPECT_NE(expect_rejected(bytes).find("magic"), std::string::npos);
}

TEST(Checkpoint, RejectsVersionMismatch) {
  auto bytes = framed_pipeline_payload();
  bytes[8] = static_cast<char>(kFormatVersion + 1);  // version u32 LSB
  EXPECT_NE(expect_rejected(bytes).find("version"), std::string::npos);
}

TEST(Checkpoint, RejectsVersionBelowReadWindow) {
  // Readers accept exactly the current version: a v7 file is rejected up
  // front, with refitting named as the way forward.
  auto bytes = framed_pipeline_payload();
  bytes[8] = static_cast<char>(kFormatVersion - 1);
  const std::string error = expect_rejected(bytes);
  EXPECT_NE(error.find("version"), std::string::npos);
  EXPECT_NE(error.find("refit"), std::string::npos);
}

TEST(Checkpoint, SurfacesTheFileVersionToTheCaller) {
  // The rejection names the version the file actually carries.
  auto bytes = framed_pipeline_payload();
  bytes[8] = 6;
  EXPECT_NE(expect_rejected(bytes).find("format version 6 unsupported"),
            std::string::npos);
}

TEST(Checkpoint, RejectsWrongSection) {
  Encoder enc;
  enc.u64(99);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  CheckpointWriter(ss, Section::kOnlineMonitor).write(enc.bytes());
  EXPECT_THROW({ CheckpointReader reader(ss, Section::kPipeline); },
               DataError);
}

TEST(Checkpoint, RejectsCorruptedPayload) {
  auto bytes = framed_pipeline_payload();
  bytes[16 + 8] ^= 0x01;  // first body byte
  EXPECT_NE(expect_rejected(bytes).find("checksum"), std::string::npos);
}

TEST(Checkpoint, RejectsTruncatedPayload) {
  auto bytes = framed_pipeline_payload();
  bytes.resize(bytes.size() - 3);
  expect_rejected(bytes);
}

TEST(Checkpoint, RejectsTruncatedHeader) {
  auto bytes = framed_pipeline_payload();
  bytes.resize(12);
  EXPECT_NE(expect_rejected(bytes).find("truncated header"),
            std::string::npos);
}

TEST(Checkpoint, ChecksumCatchesEverySingleWordChange) {
  // A buffer with a 5-byte tail; every word, the tail word included, is
  // hit by many seeded changes.  Each hashing step is a bijection of the
  // lane state, so the guarantee is certainty, not probability.
  std::mt19937_64 rng(2016);
  std::string bytes(8 * 125 + 5, '\0');
  for (char& c : bytes) c = static_cast<char>(rng() & 0xFF);
  const std::uint64_t reference = section_checksum(bytes);
  const std::size_t words = (bytes.size() + 7) / 8;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string changed = bytes;
    const std::size_t word = rng() % words;
    const std::size_t width = std::min<std::size_t>(8, bytes.size() - 8 * word);
    std::uint64_t delta = 0;
    while (delta == 0) {
      delta = width == 8 ? rng() : rng() & ((1ull << (8 * width)) - 1);
    }
    for (std::size_t b = 0; b < width; ++b) {
      changed[8 * word + b] ^= static_cast<char>((delta >> (8 * b)) & 0xFF);
    }
    ASSERT_NE(section_checksum(changed), reference)
        << "trial " << trial << " word " << word;
  }
  // The length is folded in: trailing zero bytes change the checksum.
  EXPECT_NE(section_checksum(bytes + std::string(3, '\0')), reference);
  EXPECT_NE(section_checksum(""), section_checksum(std::string(8, '\0')));
}

TEST(Checkpoint, HugeSectionLengthFailsWithoutAllocating) {
  // A length field claiming 2^60 bytes on an 8-byte body: the reader may
  // allocate at most one chunk ahead of what the stream delivered.
  auto bytes = framed_pipeline_payload();
  bytes[16 + 7] = 0x10;  // length u64 MSB
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NE(expect_rejected(bytes).find("truncated"), std::string::npos);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

}  // namespace
}  // namespace fdeta::persist

namespace fdeta::core {
namespace {

constexpr const char* kVerdictCounters[] = {
    "pipeline.weeks_scored",    "pipeline.verdicts",
    "pipeline.verdict_normal",  "pipeline.verdict_attacker",
    "pipeline.verdict_victim",  "pipeline.verdict_anomaly",
    "pipeline.verdict_excused",
};

TEST(PipelineCheckpoint, RoundTripReproducesVerdictsAndCounters) {
  const auto dataset = datagen::small_dataset(10, 28, 11);
  obs::MetricsRegistry cold_reg, warm_reg;

  PipelineConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 24, .test_weeks = 4};
  config.detector_options.kld = {.bins = 10, .significance = 0.10};
  config.metrics = &cold_reg;
  FdetaPipeline cold(config);
  cold.fit(dataset);

  std::stringstream model(std::ios::in | std::ios::out | std::ios::binary);
  cold.save_model(model);

  PipelineConfig warm_config;  // split/kld come from the checkpoint
  warm_config.metrics = &warm_reg;
  FdetaPipeline warm(warm_config);
  warm.load_model(model);

  EXPECT_EQ(warm.consumer_count(), cold.consumer_count());
  EXPECT_EQ(warm.config().split.train_weeks, 24u);
  EXPECT_EQ(warm.config().split.test_weeks, 4u);
  EXPECT_EQ(warm.config().detector_options.kld.significance, 0.10);
  EXPECT_EQ(warm_reg.snapshot().counter("pipeline.consumers_restored"), 10u);

  const EvidenceCalendar calendar;
  for (std::size_t w = 24; w < dataset.week_count(); ++w) {
    const auto a = cold.evaluate_week(dataset, dataset, w, calendar);
    const auto b = warm.evaluate_week(dataset, dataset, w, calendar);
    ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
    for (std::size_t c = 0; c < a.verdicts.size(); ++c) {
      EXPECT_EQ(a.verdicts[c].id, b.verdicts[c].id);
      EXPECT_EQ(a.verdicts[c].status, b.verdicts[c].status);
      // Bit-exact, not approximately equal: the checkpoint restores the
      // same doubles the cold fit computed.
      EXPECT_EQ(a.verdicts[c].kld_score, b.verdicts[c].kld_score);
      EXPECT_EQ(a.verdicts[c].kld_threshold, b.verdicts[c].kld_threshold);
    }
  }
  const auto cold_snap = cold_reg.snapshot();
  const auto warm_snap = warm_reg.snapshot();
  for (const char* name : kVerdictCounters) {
    EXPECT_EQ(cold_snap.counter(name), warm_snap.counter(name)) << name;
  }
}

TEST(PipelineCheckpoint, SaveRequiresFitAndLoadCommitsAtomically) {
  obs::MetricsRegistry reg;
  PipelineConfig config;
  config.metrics = &reg;
  FdetaPipeline pipeline(config);
  std::stringstream model(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(pipeline.save_model(model), InvalidArgument);

  const auto dataset = datagen::small_dataset(4, 10, 5);
  PipelineConfig fit_config;
  fit_config.split = meter::TrainTestSplit{.train_weeks = 8, .test_weeks = 2};
  fit_config.metrics = &reg;
  FdetaPipeline fitted(fit_config);
  fitted.fit(dataset);
  fitted.save_model(model);

  // Corrupt the payload: load_model must throw and leave the target usable
  // for a later, successful load.
  std::string bytes = model.str();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x10);
  std::stringstream bad(std::move(bytes),
                        std::ios::in | std::ios::out | std::ios::binary);
  FdetaPipeline target(config);
  EXPECT_THROW(target.load_model(bad), DataError);

  model.clear();
  model.seekg(0);
  target.load_model(model);
  EXPECT_EQ(target.consumer_count(), 4u);
}

TEST(MonitorCheckpoint, RestoreContinuesBitExactly) {
  const auto dataset = datagen::small_dataset(6, 10, 17);
  const meter::TrainTestSplit split{.train_weeks = 8, .test_weeks = 2};
  const SlotIndex base = split.train_weeks * kSlotsPerWeek;
  const SlotIndex half = kSlotsPerWeek / 2;
  // Consumer 2 under-reports all week, so alerts (and with them the scores
  // of the restored monitor's lazily recounted windows) land on both sides
  // of the checkpoint.
  const auto feed = [&](OnlineMonitor& m, SlotIndex from, SlotIndex to) {
    for (SlotIndex s = from; s < to; ++s) {
      for (std::size_t c = 0; c < dataset.consumer_count(); ++c) {
        const Kw kw = dataset.consumer(c).readings[base + s];
        m.ingest(c, base + s, c == 2 ? 0.3 * kw : kw);
      }
    }
  };

  for (const char* family : {"kld", "ckld", "kld-lite"}) {
    for (const std::size_t stride : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << family << " stride=" << stride);
      obs::MetricsRegistry reg_a, reg_b;
      OnlineMonitorConfig config;
      config.detector = family;
      config.stride = stride;
      config.cooldown_slots = 10;
      config.metrics = &reg_a;
      OnlineMonitor live(config);
      live.fit(dataset, split);

      // Stream half a week, checkpoint mid-stream (cooldown/stride counters
      // in flight), then have a restored monitor consume the remainder.
      feed(live, 0, half);

      std::stringstream ckpt(std::ios::in | std::ios::out | std::ios::binary);
      live.save(ckpt);

      OnlineMonitorConfig fresh_config;
      fresh_config.metrics = &reg_b;
      OnlineMonitor restored(fresh_config);
      restored.restore(ckpt);
      EXPECT_EQ(restored.config().detector, family);
      EXPECT_EQ(restored.consumer_count(), live.consumer_count());
      EXPECT_EQ(reg_b.snapshot().counter("monitor.consumers_restored"), 6u);

      feed(live, half, kSlotsPerWeek);
      feed(restored, half, kSlotsPerWeek);

      ASSERT_TRUE(std::any_of(live.alerts().begin(), live.alerts().end(),
                              [&](const AlertEvent& a) {
                                return a.slot >= base + half;
                              }))
          << "no alert after the checkpoint; the check would be vacuous";
      ASSERT_EQ(restored.alerts().size(), live.alerts().size());
      for (std::size_t i = 0; i < live.alerts().size(); ++i) {
        EXPECT_EQ(restored.alerts()[i].consumer_index,
                  live.alerts()[i].consumer_index);
        EXPECT_EQ(restored.alerts()[i].slot, live.alerts()[i].slot);
        EXPECT_EQ(restored.alerts()[i].score, live.alerts()[i].score);
        EXPECT_EQ(restored.alerts()[i].direction, live.alerts()[i].direction);
      }
      for (std::size_t c = 0; c < dataset.consumer_count(); ++c) {
        const auto wa = live.window(c);
        const auto wb = restored.window(c);
        for (std::size_t s = 0; s < wa.size(); ++s) EXPECT_EQ(wa[s], wb[s]);
      }
      std::stringstream a(std::ios::in | std::ios::out | std::ios::binary);
      std::stringstream b(std::ios::in | std::ios::out | std::ios::binary);
      live.save(a);
      restored.save(b);
      EXPECT_EQ(a.str(), b.str());
    }
  }
}

// The monitor checkpoint must be a fixed point: save -> restore -> save
// reproduces the file byte for byte (detector rebuild, derived
// missing_in_window popcount and all).
TEST(MonitorCheckpoint, SaveRestoreSaveIsByteStable) {
  const auto dataset = datagen::small_dataset(5, 10, 19);
  const meter::TrainTestSplit split{.train_weeks = 8, .test_weeks = 2};
  obs::MetricsRegistry reg;

  OnlineMonitorConfig config;
  config.stride = 3;
  config.cooldown_slots = 6;
  config.metrics = &reg;
  OnlineMonitor live(config);
  live.fit(dataset, split);

  // Mid-stream state with an outage mixed in, so the missing mask and the
  // stride/cooldown counters are non-trivial.
  const SlotIndex base = split.train_weeks * kSlotsPerWeek;
  for (SlotIndex s = 0; s < kSlotsPerWeek / 3; ++s) {
    for (std::size_t c = 0; c < dataset.consumer_count(); ++c) {
      const bool missing = (s + c) % 11 == 0;
      live.ingest(Reading{c, base + s,
                          dataset.consumer(c).readings[base + s], missing});
    }
  }

  std::stringstream first(std::ios::in | std::ios::out | std::ios::binary);
  live.save(first);

  OnlineMonitorConfig fresh;
  fresh.metrics = &reg;
  OnlineMonitor restored(fresh);
  restored.restore(first);

  std::stringstream second(std::ios::in | std::ios::out | std::ios::binary);
  restored.save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(MonitorCheckpoint, RejectsPipelineCheckpoint) {
  const auto dataset = datagen::small_dataset(3, 10, 7);
  obs::MetricsRegistry reg;
  PipelineConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 8, .test_weeks = 2};
  config.metrics = &reg;
  FdetaPipeline pipeline(config);
  pipeline.fit(dataset);
  std::stringstream model(std::ios::in | std::ios::out | std::ios::binary);
  pipeline.save_model(model);

  OnlineMonitorConfig mon_config;
  mon_config.metrics = &reg;
  OnlineMonitor monitor(mon_config);
  EXPECT_THROW(monitor.restore(model), DataError);
}

// ---------------------------------------------------------------------------
// The v7 frame against a small monitor with a feeder block: header, three
// sections (state, windows, missing-slot bitset).

struct SectionSpan {
  std::size_t length_at;  ///< offset of the u64 length
  std::size_t body_at;
  std::size_t length;
};

std::vector<SectionSpan> sections_of(const std::string& file) {
  std::vector<SectionSpan> out;
  for (std::size_t at = 16; at + 8 <= file.size();) {
    persist::Decoder dec(std::string_view(file).substr(at, 8));
    const auto length = static_cast<std::size_t>(dec.u64());
    out.push_back({at, at + 8, length});
    at += 8 + length + 8;
  }
  return out;
}

/// Overwrites the f64 at `offset` of an encoded block.
void patch_f64(std::string& bytes, std::size_t offset, double value) {
  persist::Encoder enc;
  enc.f64(value);
  bytes.replace(offset, 8, enc.bytes());
}

/// Rewrites a section's checksum after its body was edited.
void reseal(std::string& file, const SectionSpan& section) {
  const std::uint64_t sum = persist::section_checksum(
      std::string_view(file).substr(section.body_at, section.length));
  for (std::size_t b = 0; b < 8; ++b) {
    file[section.body_at + section.length + b] =
        static_cast<char>((sum >> (8 * b)) & 0xFF);
  }
}

class FramedMonitor : public ::testing::Test {
 protected:
  FramedMonitor() : topology_(make_topology()) {
    OnlineMonitor live(config());
    live.fit(dataset_, split_);
    // Some missing slots, so the bitset is not all zero.
    const SlotIndex base = split_.train_weeks * kSlotsPerWeek;
    for (SlotIndex s = 0; s < 40; ++s) {
      for (std::size_t c = 0; c < dataset_.consumer_count(); ++c) {
        live.ingest(Reading{c, base + s,
                            dataset_.consumer(c).readings[base + s],
                            (s + c) % 7 == 0});
      }
    }
    std::ostringstream out(std::ios::binary);
    live.save(out);
    bytes_ = out.str();
  }

  static grid::Topology make_topology() {
    Rng rng(3);
    return grid::Topology::random_radial(6, 3, rng, 0.02);
  }

  OnlineMonitorConfig config() {
    OnlineMonitorConfig c;
    c.detector_options.kld = {.bins = 10, .significance = 0.10};
    c.metrics = &reg_;
    c.topology = &topology_;
    return c;
  }

  /// Restores `file` into `target` and returns the DataError message.
  static std::string rejection(OnlineMonitor& target, const std::string& file) {
    std::istringstream in(file, std::ios::binary);
    try {
      target.restore(in);
    } catch (const DataError& e) {
      return e.what();
    }
    ADD_FAILURE() << "checkpoint was not rejected";
    return {};
  }

  obs::MetricsRegistry reg_;
  const meter::Dataset dataset_ = datagen::small_dataset(6, 10, 37);
  const meter::TrainTestSplit split_{.train_weeks = 8, .test_weeks = 2};
  const grid::Topology topology_;
  std::string bytes_;
};

TEST_F(FramedMonitor, WritesThreeSectionsSizedByTheFleet) {
  const auto sections = sections_of(bytes_);
  ASSERT_EQ(sections.size(), 3u);
  const std::size_t consumers = dataset_.consumer_count();
  EXPECT_EQ(sections[1].length, consumers * kSlotsPerWeek * sizeof(double));
  EXPECT_EQ(sections[2].length, consumers * 6 * sizeof(std::uint64_t));
  EXPECT_EQ(sections[2].body_at + sections[2].length + 8, bytes_.size());

  OnlineMonitor restored(config());
  std::istringstream in(bytes_, std::ios::binary);
  restored.restore(in);
  ASSERT_NE(restored.feeder(), nullptr);
  std::ostringstream again(std::ios::binary);
  restored.save(again);
  EXPECT_EQ(again.str(), bytes_);
}

TEST_F(FramedMonitor, EveryFlippedByteIsRejected) {
  OnlineMonitor target(config());
  for (std::size_t at = 0; at < bytes_.size(); ++at) {
    std::string flipped = bytes_;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    rejection(target, flipped);
    if (HasFailure()) {
      ADD_FAILURE() << "flipped byte " << at << " of " << bytes_.size();
      return;
    }
  }
  // A failed restore leaves the target untouched and usable.
  std::istringstream in(bytes_, std::ios::binary);
  target.restore(in);
  EXPECT_EQ(target.consumer_count(), dataset_.consumer_count());
}

TEST_F(FramedMonitor, TruncationInsideEachBulkSectionIsRejected) {
  const auto sections = sections_of(bytes_);
  ASSERT_EQ(sections.size(), 3u);
  OnlineMonitor target(config());
  for (const std::size_t s : {1u, 2u}) {
    const SectionSpan& section = sections[s];
    for (const std::size_t cut :
         {section.length_at + 3, section.body_at + 1,
          section.body_at + section.length / 2,
          section.body_at + section.length + 5}) {
      SCOPED_TRACE(::testing::Message() << "section " << s << " cut " << cut);
      EXPECT_NE(rejection(target, bytes_.substr(0, cut)).find("truncated"),
                std::string::npos);
    }
  }
}

TEST_F(FramedMonitor, BulkSectionLengthMustMatchDecodedCounts) {
  const auto sections = sections_of(bytes_);
  ASSERT_EQ(sections.size(), 3u);
  OnlineMonitor target(config());
  for (const std::size_t s : {1u, 2u}) {
    for (const int delta : {-8, 8}) {
      std::string file = bytes_;
      persist::Encoder length;
      length.u64(sections[s].length + delta);
      file.replace(sections[s].length_at, 8, length.bytes());
      EXPECT_NE(rejection(target, file).find("decoded counts"),
                std::string::npos)
          << "section " << s << " delta " << delta;
    }
  }
}

TEST_F(FramedMonitor, RejectsNonzeroMaskPaddingBit) {
  const auto sections = sections_of(bytes_);
  ASSERT_EQ(sections.size(), 3u);
  // Consumer 1's last mask word: bits 0..15 are slots 320..335, bit 16 is
  // the first padding bit.
  std::string file = bytes_;
  const std::size_t word = sections[2].body_at + (6 + 5) * 8;
  file[word + 2] = static_cast<char>(file[word + 2] | 0x01);
  reseal(file, sections[2]);
  OnlineMonitor target(config());
  EXPECT_NE(rejection(target, file).find("padding bit"), std::string::npos);
}

TEST_F(FramedMonitor, NonFiniteFeederStateFailsWithDataError) {
  const auto sections = sections_of(bytes_);
  ASSERT_EQ(sections.size(), 3u);
  OnlineMonitor target(config());
  std::istringstream in(bytes_, std::ios::binary);
  target.restore(in);
  ASSERT_NE(target.feeder(), nullptr);
  // The state section ends with the feeder block's node baselines and
  // deviations, the consumer count, then the consumer training means.
  const std::size_t nodes = target.feeder()->scored_node_count();
  const std::size_t means_at = sections[0].body_at + sections[0].length -
                               dataset_.consumer_count() * 8;
  const std::size_t sigmas_at = means_at - 8 - nodes * 8;
  const std::size_t baselines_at = sigmas_at - nodes * 8;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [what, at, value] :
       {std::tuple<const char*, std::size_t, double>{
            "consumer training mean", means_at + 8, nan},
        {"consumer training mean", means_at, -inf},
        {"node baseline", baselines_at, inf},
        {"node deviation", sigmas_at + 8, nan},
        {"node deviation", sigmas_at, -1.0}}) {
    SCOPED_TRACE(::testing::Message() << what << " = " << value);
    std::string file = bytes_;
    patch_f64(file, at, value);
    reseal(file, sections[0]);
    EXPECT_NE(rejection(target, file).find("finite"), std::string::npos);
  }
}

/// Serves a string a few hundred bytes per underflow and never reports how
/// much is left, as a pipe would.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string data) : data_(std::move(data)) {}

 protected:
  int_type underflow() override {
    if (pos_ >= data_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(300, data_.size() - pos_);
    char* p = data_.data() + pos_;
    setg(p, p, p + n);
    pos_ += n;
    return traits_type::to_int_type(*p);
  }

 private:
  std::string data_;
  std::size_t pos_ = 0;
};

TEST_F(FramedMonitor, RestoresFromStreamThatCannotReportItsSize) {
  TrickleBuf buf(bytes_);
  std::istream in(&buf);
  OnlineMonitor restored(config());
  restored.restore(in);
  std::ostringstream again(std::ios::binary);
  restored.save(again);
  EXPECT_EQ(again.str(), bytes_);
}

TEST(Checkpoint, ReadsBulkSectionsFromStreamThatCannotReportItsSize) {
  // Several read chunks' worth, assembled after the bytes arrived.
  std::vector<double> values(300000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) * 0.5;
  }
  std::ostringstream out(std::ios::binary);
  persist::CheckpointWriter(out, persist::Section::kOnlineMonitor)
      .write(std::span<const double>(values));
  TrickleBuf buf(out.str());
  std::istream in(&buf);
  persist::CheckpointReader reader(in, persist::Section::kOnlineMonitor);
  std::vector<double> back;
  reader.read(back, values.size());
  EXPECT_EQ(back, values);
}

// ---------------------------------------------------------------------------
// Bounded decoding: a small, checksum-valid file claiming a huge fleet must
// fail with DataError before anything is sized by the claimed counts.

/// A monitor checkpoint whose state section claims `count` kld consumers
/// with `bins` bins at `significance`, rescored every `stride` readings,
/// then `padding` zero bytes; empty bulk sections follow.
std::string forged_monitor(std::uint64_t count, std::uint64_t bins,
                           std::size_t padding, std::uint64_t stride = 4,
                           double significance = 0.05) {
  persist::Encoder enc;
  enc.u64(stride);
  enc.u64(48);     // cooldown slots
  enc.f64(0.25);   // max missing fraction
  enc.u64(count);
  enc.str("kld");
  enc.u64(bins);
  enc.f64(significance);
  enc.f64(1e-9);   // epsilon
  enc.u8(1);       // exclude out of support
  enc.u64(6);      // training weeks
  for (std::size_t i = 0; i < padding; ++i) enc.u8(0);
  std::ostringstream out(std::ios::binary);
  persist::CheckpointWriter writer(out, persist::Section::kOnlineMonitor);
  writer.write(enc.bytes());
  writer.write(std::span<const double>{});
  writer.write(std::span<const std::uint64_t>{});
  return out.str();
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void expect_fast_rejection(const std::string& file) {
  obs::MetricsRegistry reg;
  OnlineMonitorConfig config;
  config.metrics = &reg;
  OnlineMonitor monitor(config);
  const long rss_before = peak_rss_kb();
  const auto start = std::chrono::steady_clock::now();
  std::istringstream in(file, std::ios::binary);
  EXPECT_THROW(monitor.restore(in), DataError);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
  // Nothing was sized by the claimed counts: the peak RSS barely moves.
  EXPECT_LT(peak_rss_kb() - rss_before, 16 * 1024);
}

TEST(MonitorCheckpoint, ClaimedMillionConsumerFleetFailsFast) {
  expect_fast_rejection(forged_monitor(1'000'000, 10, 0));
}

TEST(MonitorCheckpoint, ClaimedHugeBinCountFailsWithDataError) {
  expect_fast_rejection(forged_monitor(1'000'000, 1u << 20, 0));
  // Enough section bytes for the consumer count, far too few for the edges.
  expect_fast_rejection(forged_monitor(1000, 1u << 20, 64 * 1024));
}

TEST(MonitorCheckpoint, NonFiniteTrainingMeansFailWithDataError) {
  obs::MetricsRegistry reg;
  OnlineMonitorConfig config;
  config.metrics = &reg;
  const meter::Dataset dataset = datagen::small_dataset(3, 10, 53);
  const meter::TrainTestSplit split{.train_weeks = 8, .test_weeks = 2};
  OnlineMonitor live(config);
  live.fit(dataset, split);
  std::ostringstream out(std::ios::binary);
  live.save(out);
  const std::string bytes = out.str();

  // Consumer 1's training mean, located by its bits in the state section.
  const SectionSpan state = sections_of(bytes)[0];
  persist::Encoder bits;
  bits.f64(stats::mean(split.train(dataset.consumer(1))));
  const std::size_t at = bytes.find(bits.bytes(), state.body_at);
  ASSERT_LT(at, state.body_at + state.length);
  for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    std::string file = bytes;
    patch_f64(file, at, value);
    reseal(file, state);
    OnlineMonitor target(config);
    std::istringstream in(file, std::ios::binary);
    EXPECT_THROW(target.restore(in), DataError) << value;
  }
}

// A checksum-valid file whose only defect is an out-of-range config must
// fail as a malformed checkpoint (DataError), never as a bad call.

/// The zero bytes that complete forged_monitor's state section for one
/// consumer: edges, baseline, six training divergences, threshold, id,
/// stride and cooldown counters, training mean, no alerts, no feeder block.
std::size_t one_consumer_rest(std::uint64_t bins) {
  return (bins + 1 + bins + 6 + 1) * 8 + 4 + 4 + 4 + 8 + 8 + 1;
}

std::string monitor_rejection(const std::string& file) {
  obs::MetricsRegistry reg;
  OnlineMonitorConfig config;
  config.metrics = &reg;
  OnlineMonitor monitor(config);
  std::istringstream in(file, std::ios::binary);
  try {
    monitor.restore(in);
  } catch (const DataError& e) {
    return e.what();
  }
  ADD_FAILURE() << "checkpoint was not rejected";
  return {};
}

TEST(MonitorCheckpoint, OutOfRangeConfigsFailWithDataError) {
  // Control: a valid config decodes the whole state section and trips only
  // over the (empty) bulk sections.
  EXPECT_NE(monitor_rejection(forged_monitor(1, 10, one_consumer_rest(10)))
                .find("decoded counts"),
            std::string::npos);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(monitor_rejection(forged_monitor(1, 10, one_consumer_rest(10), 0))
                .find("stride"),
            std::string::npos);
  for (const auto& [bins, significance] :
       {std::pair<std::uint64_t, double>{1, 0.05}, {10, 1.5}, {10, nan}}) {
    SCOPED_TRACE(::testing::Message()
                 << "bins=" << bins << " significance=" << significance);
    EXPECT_EQ(monitor_rejection(forged_monitor(1, bins, one_consumer_rest(bins),
                                               4, significance))
                  .find("decoded counts"),
              std::string::npos);
  }
}

/// The fitted parts of forged_pipeline's one kld member: unit-spaced edges,
/// a uniform baseline, four training weeks.
struct KldParts {
  explicit KldParts(std::uint64_t bins) {
    for (std::uint64_t e = 0; e <= bins; ++e) {
      edges.push_back(static_cast<double>(e));
    }
    baseline.assign(bins, 1.0 / static_cast<double>(bins));
  }

  std::vector<double> edges;
  std::vector<double> baseline;
  std::vector<double> divergences{0.1, 0.2, 0.3, 0.4};
  double threshold = 0.35;
};

/// A complete one-consumer kld pipeline checkpoint.
std::string forged_pipeline(
    double significance, const KldParts& parts,
    const meter::WeeklyStats& stats = {.means = {1.0, 2.0},
                                       .variances = {0.5, 0.5}}) {
  const std::uint64_t bins = parts.baseline.size();
  persist::Encoder enc;
  enc.u64(8);      // train weeks
  enc.u64(2);      // test weeks
  enc.f64(0.0);    // direction margin
  enc.f64(1e-6);   // direction floor
  enc.u64(1);      // consumers
  enc.str("kld");
  enc.u64(bins);
  enc.f64(significance);
  enc.f64(1e-9);   // epsilon
  enc.u8(1);       // exclude out of support
  enc.u64(parts.divergences.size());  // training weeks
  enc.f64_array(parts.edges);
  enc.f64_array(parts.baseline);
  enc.f64_array(parts.divergences);
  enc.f64(parts.threshold);
  meter::save_weekly_stats(stats, enc);
  std::ostringstream out(std::ios::binary);
  persist::CheckpointWriter(out, persist::Section::kPipeline)
      .write(enc.bytes());
  return out.str();
}

TEST(PipelineCheckpoint, OutOfRangeConfigsFailWithDataError) {
  obs::MetricsRegistry reg;
  PipelineConfig config;
  config.metrics = &reg;
  FdetaPipeline pipeline(config);
  {
    std::istringstream in(forged_pipeline(0.05, KldParts(10)),
                          std::ios::binary);
    pipeline.load_model(in);  // the control loads
    EXPECT_EQ(pipeline.consumer_count(), 1u);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [bins, significance] :
       {std::pair<std::uint64_t, double>{1, 0.05}, {10, 1.5}, {10, nan}}) {
    SCOPED_TRACE(::testing::Message()
                 << "bins=" << bins << " significance=" << significance);
    std::istringstream in(forged_pipeline(significance, KldParts(bins)),
                          std::ios::binary);
    EXPECT_THROW(pipeline.load_model(in), DataError);
  }
}

TEST(PipelineCheckpoint, NonFiniteFittedPartsFailWithDataError) {
  obs::MetricsRegistry reg;
  PipelineConfig config;
  config.metrics = &reg;
  FdetaPipeline pipeline(config);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, std::function<void(KldParts&)>>>
      forgeries = {
          {"NaN threshold", [&](KldParts& p) { p.threshold = nan; }},
          {"+inf threshold", [&](KldParts& p) { p.threshold = inf; }},
          {"NaN first edge", [&](KldParts& p) { p.edges.front() = nan; }},
          {"NaN middle edge", [&](KldParts& p) { p.edges[5] = nan; }},
          {"+inf last edge", [&](KldParts& p) { p.edges.back() = inf; }},
          {"NaN baseline", [&](KldParts& p) { p.baseline[3] = nan; }},
          {"negative baseline", [&](KldParts& p) { p.baseline[3] = -5.0; }},
          {"NaN training divergence",
           [&](KldParts& p) { p.divergences[2] = nan; }},
      };
  for (const auto& [what, forge] : forgeries) {
    SCOPED_TRACE(what);
    KldParts parts(10);
    forge(parts);
    std::istringstream in(forged_pipeline(0.05, parts), std::ios::binary);
    EXPECT_THROW(pipeline.load_model(in), DataError);
  }
}

TEST(PipelineCheckpoint, NonFiniteWeeklyStatsFailWithDataError) {
  obs::MetricsRegistry reg;
  PipelineConfig config;
  config.metrics = &reg;
  FdetaPipeline pipeline(config);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Stats = meter::WeeklyStats;
  const std::vector<std::pair<const char*, std::function<void(Stats&)>>>
      forgeries = {
          {"NaN weekly mean", [&](Stats& s) { s.means[1] = nan; }},
          {"-inf weekly mean", [&](Stats& s) { s.means[0] = -inf; }},
          {"NaN weekly variance", [&](Stats& s) { s.variances[0] = nan; }},
          {"negative weekly variance",
           [&](Stats& s) { s.variances[1] = -0.5; }},
          {"NaN mean bound", [&](Stats& s) { s.mean_hi = nan; }},
          {"+inf variance bound", [&](Stats& s) { s.var_hi = inf; }},
          {"negative variance bound", [&](Stats& s) { s.var_lo = -1.0; }},
      };
  for (const auto& [what, forge] : forgeries) {
    SCOPED_TRACE(what);
    Stats stats{.means = {1.0, 2.0}, .variances = {0.5, 0.5}};
    forge(stats);
    std::istringstream in(forged_pipeline(0.05, KldParts(10), stats),
                          std::ios::binary);
    EXPECT_THROW(pipeline.load_model(in), DataError);
  }
}

/// The block of a two-member fleet of `family` fitted at significance 0.10.
std::string fleet_block(const std::string& family) {
  const auto dataset = datagen::small_dataset(2, 8, 47);
  DetectorOptions options;
  options.kld.significance = 0.10;
  DetectorFleet fleet(family, options, dataset.consumer_count(), 8);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet.fit(i, dataset.consumer(i).readings);
  }
  persist::Encoder enc;
  fleet.save(enc);
  return enc.bytes();
}

/// The DataError message restoring `bytes` throws.
std::string fleet_rejection(const std::string& bytes) {
  persist::Decoder dec(bytes);
  try {
    DetectorFleet::restore(dec, 0);
  } catch (const DataError& e) {
    return e.what();
  }
  ADD_FAILURE() << "fleet block was not rejected";
  return {};
}

TEST(DetectorFleetCheckpoint, UnsortedKldEdgesFailWithDataError) {
  std::string bytes = fleet_block("kld");
  // Member count, id, config (8 + 8 + 8 + 1), training weeks: then the
  // first member's edges, whose second edge drops below the first.
  const std::size_t edges_at = 8 + 8 + 3 + 8 + 8 + 8 + 1 + 8;
  patch_f64(bytes, edges_at + 8, -1e9);
  EXPECT_NE(fleet_rejection(bytes).find("ascending"), std::string::npos);
}

TEST(DetectorFleetCheckpoint, NonFiniteMemberThresholdsFailWithDataError) {
  for (const std::string family : {"ckld", "kld-lite"}) {
    SCOPED_TRACE(family);
    std::string bytes = fleet_block(family);
    persist::Decoder dec(bytes);
    const DetectorFleet fleet = DetectorFleet::restore(dec, 0);
    // The first member's (first group's) threshold, located by its bits.
    const double threshold = fleet.threshold(0);
    persist::Encoder bits;
    bits.f64(threshold);
    const std::size_t at = bytes.find(bits.bytes());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(bytes.find(bits.bytes(), at + 1), std::string::npos)
        << "the threshold's bits are not unique in the block";
    patch_f64(bytes, at, std::numeric_limits<double>::quiet_NaN());
    EXPECT_NE(fleet_rejection(bytes).find("finite"), std::string::npos);
  }
}

// The v10 block of every family: its layout, and a seeded mutation sweep
// over it.  Every case must end in DataError or a clean parse; anything else
// (another exception, a crash, a sanitizer report) fails.

/// Where fleet_block(family) keeps its fitted doubles: edges, baselines,
/// references and thresholds back to back from `at`, then kld-lite's two
/// members' 48 u32 positions.
struct FittedDoubles {
  std::size_t at;
  std::size_t count;
};

FittedDoubles fitted_doubles(const std::string& family, std::size_t size) {
  // Member count, id, kld config, (reduced_slots, ckld table), train weeks.
  std::size_t at = 8 + 8 + family.size() + 8 + 8 + 8 + 1 + 8;
  if (family != "kld") at += 8;
  if (family == "ckld") at += kSlotsPerWeek * 4;
  const std::size_t positions = family == "kld-lite" ? 2 * 48 * 4 : 0;
  return {at, (size - at - positions) / 8};
}

/// Restores `bytes` as a whole block, accepting DataError; any other
/// exception escapes and fails the calling test.
void restore_or_reject(const std::string& bytes) {
  persist::Decoder dec(bytes);
  try {
    DetectorFleet::restore(dec, 0);
    dec.require_exhausted("fleet block");
  } catch (const DataError&) {
  }
}

TEST(DetectorFleetCheckpoint, BlockStoresEachFieldOncePerMember) {
  // 6 training weeks, default options: per member, G x (11 + 10 + 1) edge,
  // baseline and threshold doubles, 6 reference doubles, k u32 positions.
  const auto dataset = datagen::small_dataset(2, 6, 47);
  for (const auto& [family, per_member] :
       {std::pair<std::string, std::size_t>{"kld", 224},
        {"ckld", 400},
        {"kld-lite", 416}}) {
    SCOPED_TRACE(family);
    DetectorFleet fleet(family, {}, 2, 6);
    for (std::size_t i = 0; i < 2; ++i) {
      fleet.fit(i, dataset.consumer(i).readings);
    }
    persist::Encoder enc;
    fleet.save(enc);
    const std::size_t header =
        fitted_doubles(family, enc.bytes().size()).at;
    EXPECT_EQ(enc.bytes().size(), header + 2 * per_member);
  }
}

TEST(DetectorFleetCheckpoint, MutatedBlocksFailWithDataErrorOrParse) {
  Rng rng(2016);
  for (const std::string_view name : registered_detector_names()) {
    const std::string family(name);
    SCOPED_TRACE(family);
    const std::string bytes = fleet_block(family);
    for (std::size_t at = 0; at < bytes.size(); ++at) {
      for (const unsigned mask : {0xFFu, 1u << rng.below(8)}) {
        std::string flipped = bytes;
        flipped[at] = static_cast<char>(flipped[at] ^ mask);
        restore_or_reject(flipped);
      }
      persist::Decoder truncated(std::string_view(bytes).substr(0, at));
      EXPECT_THROW(DetectorFleet::restore(truncated, 0), DataError)
          << "truncated at byte " << at << " of " << bytes.size();
      if (HasFailure()) return;
    }
  }
}

TEST(DetectorFleetCheckpoint, NonFiniteFittedDoublesFailWithDataError) {
  for (const std::string_view name : registered_detector_names()) {
    const std::string family(name);
    SCOPED_TRACE(family);
    const std::string bytes = fleet_block(family);
    const FittedDoubles doubles = fitted_doubles(family, bytes.size());
    for (std::size_t k = 0; k < doubles.count; ++k) {
      for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()}) {
        std::string planted = bytes;
        patch_f64(planted, doubles.at + 8 * k, value);
        EXPECT_NE(fleet_rejection(planted).find("finite"), std::string::npos)
            << "fitted double " << k << " = " << value;
        if (HasFailure()) return;
      }
    }
  }
}

TEST(DetectorFleetCheckpoint, KldLitePositionsMustBeInRangeAndAscending) {
  const std::string bytes = fleet_block("kld-lite");
  const std::size_t positions_at = bytes.size() - 2 * 48 * 4;
  const auto with_position = [&](std::size_t j, std::uint32_t value) {
    persist::Encoder enc;
    enc.u32(value);
    std::string out = bytes;
    out.replace(positions_at + 4 * j, 4, enc.bytes());
    return out;
  };
  EXPECT_NE(fleet_rejection(with_position(47, kSlotsPerWeek))
                .find("out of range"),
            std::string::npos);
  persist::Decoder first(std::string_view(bytes).substr(positions_at, 4));
  EXPECT_NE(fleet_rejection(with_position(1, first.u32())).find("ascending"),
            std::string::npos);
}

TEST(DetectorFleetCheckpoint, NonFiniteCkldMarginsFailWithDataError) {
  // A ckld block's references are its training margins: they follow the
  // edges and baselines (2 members x 2 groups x 21 doubles).
  const std::string bytes = fleet_block("ckld");
  const FittedDoubles doubles = fitted_doubles("ckld", bytes.size());
  std::string planted = bytes;
  patch_f64(planted, doubles.at + 8 * (2 * 2 * 21),
            std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(fleet_rejection(planted).find("margins"), std::string::npos);
}

TEST(DetectorFleetCheckpoint, CkldCalendarMustMatchThisBuild) {
  std::string bytes = fleet_block("ckld");
  {
    persist::Decoder dec(bytes);
    const DetectorFleet fleet = DetectorFleet::restore(dec, 0);
    dec.require_exhausted("fleet block");
    EXPECT_EQ(fleet.family(), "ckld");
    EXPECT_EQ(fleet.options().kld.significance, 0.10);
  }
  // Member count, id, kld config, reduced_slots: then the table, whose slot
  // 0 (midnight, off-peak) moves to the peak group.
  const std::size_t table_at = 8 + 8 + 4 + 8 + 8 + 8 + 1 + 8;
  persist::Encoder peak;
  peak.u32(1);
  bytes.replace(table_at, 4, peak.bytes());
  EXPECT_NE(fleet_rejection(bytes).find("calendar"), std::string::npos);
}

TEST(ConditionedKldCheckpoint, RoundTripIsBitExact) {
  const auto dataset = datagen::small_dataset(1, 12, 23);
  const auto& readings = dataset.consumer(0).readings;
  const std::span<const Kw> train{readings.data(),
                                  10 * static_cast<std::size_t>(kSlotsPerWeek)};

  DetectorFleet fleet("ckld", {}, 1, 10);
  fleet.fit(0, train);
  persist::Encoder enc;
  fleet.save(enc);
  persist::Decoder dec(enc.bytes());
  const DetectorFleet back = DetectorFleet::restore(dec, 0);
  dec.require_exhausted("conditioned detector");

  const auto week = dataset.consumer(0).week(11);
  const auto a = fleet.group_scores(0, week);
  const auto b = back.group_scores(0, week);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a[g], b[g]);
    EXPECT_EQ(fleet.threshold(0, g), back.threshold(0, g));
  }
  EXPECT_EQ(fleet.raw_score_week(0, week), back.raw_score_week(0, week));
}

TEST(EpsilonSmoothing, MatchesPaperScoresOnInSupportWeeks) {
  const auto dataset = datagen::small_dataset(1, 12, 29);
  const auto& readings = dataset.consumer(0).readings;
  const std::span<const Kw> train{readings.data(),
                                  10 * static_cast<std::size_t>(kSlotsPerWeek)};

  KldDetector exact({.bins = 10, .significance = 0.05, .epsilon = 0.0});
  KldDetector smoothed({.bins = 10, .significance = 0.05, .epsilon = 1e-9});
  exact.fit(train);
  smoothed.fit(train);

  // Training weeks are in-support by construction: epsilon perturbs their
  // scores only at the smoothing-mass scale.
  for (std::size_t w = 0; w < 10; ++w) {
    const auto week = dataset.consumer(0).week(w);
    const double a = exact.score(week);
    const double b = smoothed.score(week);
    ASSERT_TRUE(std::isfinite(a));
    EXPECT_NEAR(a, b, 1e-6);
  }
  EXPECT_NEAR(exact.threshold(), smoothed.threshold(), 1e-6);
}

TEST(EpsilonSmoothing, KeepsOutOfSupportScoresFinite) {
  // Bimodal training: readings alternate near 1 kW and near 10 kW, so the
  // equal-width bins over [min, max] leave every interior bin empty.
  const std::size_t slots = 10 * static_cast<std::size_t>(kSlotsPerWeek);
  std::vector<Kw> train(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const double jitter = 0.001 * static_cast<double>(s % 7);
    train[s] = (s % 2 == 0) ? 1.0 + jitter : 10.0 - jitter;
  }

  KldDetector exact({.bins = 10, .significance = 0.05, .epsilon = 0.0});
  KldDetector smoothed({.bins = 10, .significance = 0.05, .epsilon = 1e-9});
  exact.fit(train);
  smoothed.fit(train);

  // A flat 5.5 kW week lands entirely in an empty interior bin: the bare
  // eq.-(12) score saturates to infinity, the smoothed score stays finite
  // but far above threshold.
  std::vector<Kw> mid_week(static_cast<std::size_t>(kSlotsPerWeek), 5.5);
  ASSERT_TRUE(std::isinf(exact.score(mid_week)));
  const double s = smoothed.score(mid_week);
  EXPECT_TRUE(std::isfinite(s));
  EXPECT_GT(s, smoothed.threshold());  // still a screaming anomaly
}

TEST(EpsilonSmoothing, RejectsNegativeEpsilon) {
  EXPECT_THROW(KldDetector({.epsilon = -1e-9}), InvalidArgument);
  ConditionedKldDetectorConfig conditioned;
  conditioned.kld.epsilon = -1.0;
  EXPECT_THROW(ConditionedKldDetector{conditioned}, InvalidArgument);
}

// ---------------------------------------------------------------------------
// Every registered family through every owner: the pipeline, and a monitor
// whose topology adds the feeder block (its nodes run the same family).

class FleetRoundTrip : public ::testing::TestWithParam<std::string_view> {
 protected:
  FleetRoundTrip() : topology_(make_topology()) {}

  static grid::Topology make_topology() {
    Rng rng(5);
    return grid::Topology::random_radial(6, 3, rng, 0.02);
  }

  /// Non-default knobs for every family, so a restore that drops any of
  /// them shows up in the saved bytes.
  static DetectorOptions options() {
    DetectorOptions o;
    o.kld = {.bins = 12, .significance = 0.10};
    o.reduced_slots = 24;
    return o;
  }

  PipelineConfig pipeline_config() {
    PipelineConfig c;
    c.split = split_;
    c.detector = std::string(GetParam());
    c.detector_options = options();
    c.metrics = &reg_;
    return c;
  }

  OnlineMonitorConfig monitor_config() {
    OnlineMonitorConfig c;
    c.detector = std::string(GetParam());
    c.detector_options = options();
    c.stride = 2;
    c.cooldown_slots = 12;
    c.metrics = &reg_;
    c.topology = &topology_;
    c.feeder.detector = c.detector;
    c.feeder.detector_options = c.detector_options;
    return c;
  }

  static std::string saved(const FdetaPipeline& pipeline) {
    std::ostringstream out(std::ios::binary);
    pipeline.save_model(out);
    return out.str();
  }

  static std::string saved(const OnlineMonitor& monitor) {
    std::ostringstream out(std::ios::binary);
    monitor.save(out);
    return out.str();
  }

  /// Feeds test-week slots [from, to) of every consumer.
  void feed(OnlineMonitor& monitor, SlotIndex from, SlotIndex to) const {
    const SlotIndex base = split_.train_weeks * kSlotsPerWeek;
    for (SlotIndex s = from; s < to; ++s) {
      for (std::size_t c = 0; c < data_.consumer_count(); ++c) {
        monitor.ingest(Reading{c, base + s,
                               data_.consumer(c).readings[base + s],
                               (s + c) % 13 == 0});
      }
    }
  }

  obs::MetricsRegistry reg_;
  const meter::Dataset data_ = datagen::small_dataset(6, 10, 41);
  const meter::TrainTestSplit split_{.train_weeks = 8, .test_weeks = 2};
  const grid::Topology topology_;
};

TEST_P(FleetRoundTrip, PipelineRestoresIntoADefaultPipeline) {
  FdetaPipeline original(pipeline_config());
  original.fit(data_);
  const std::string bytes = saved(original);

  PipelineConfig fresh;
  fresh.metrics = &reg_;
  FdetaPipeline restored(fresh);
  std::istringstream in(bytes, std::ios::binary);
  restored.load_model(in);
  EXPECT_EQ(saved(restored), bytes);
  EXPECT_EQ(restored.config().detector, GetParam());

  const EvidenceCalendar calendar;
  for (std::size_t w = split_.train_weeks; w < data_.week_count(); ++w) {
    const auto a = original.evaluate_week(data_, data_, w, calendar);
    const auto b = restored.evaluate_week(data_, data_, w, calendar);
    ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
    for (std::size_t c = 0; c < a.verdicts.size(); ++c) {
      EXPECT_EQ(a.verdicts[c].status, b.verdicts[c].status);
      EXPECT_EQ(a.verdicts[c].kld_score, b.verdicts[c].kld_score);
      EXPECT_EQ(a.verdicts[c].kld_threshold, b.verdicts[c].kld_threshold);
    }
  }

  // The restored config is the fitted one: refitting from it reproduces
  // the checkpoint.
  FdetaPipeline refit(restored.config());
  refit.fit(data_);
  EXPECT_EQ(saved(refit), bytes);
}

TEST_P(FleetRoundTrip, MonitorWithFeederRestoresIntoADefaultMonitor) {
  OnlineMonitor original(monitor_config());
  original.fit(data_, split_);
  feed(original, 0, kSlotsPerWeek / 2);
  const std::string bytes = saved(original);

  OnlineMonitorConfig fresh;
  fresh.metrics = &reg_;
  fresh.topology = &topology_;
  OnlineMonitor restored(fresh);
  std::istringstream in(bytes, std::ios::binary);
  restored.restore(in);
  ASSERT_NE(restored.feeder(), nullptr);
  EXPECT_EQ(saved(restored), bytes);

  feed(original, kSlotsPerWeek / 2, kSlotsPerWeek);
  feed(restored, kSlotsPerWeek / 2, kSlotsPerWeek);
  ASSERT_FALSE(original.alerts().empty()) << "alert equivalence is vacuous";
  ASSERT_EQ(restored.alerts().size(), original.alerts().size());
  for (std::size_t i = 0; i < original.alerts().size(); ++i) {
    const AlertEvent& a = original.alerts()[i];
    const AlertEvent& b = restored.alerts()[i];
    EXPECT_EQ(a.consumer_index, b.consumer_index);
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.direction, b.direction);
  }
  const SlotIndex end = (split_.train_weeks + 1) * kSlotsPerWeek;
  EXPECT_EQ(hierarchy::to_text(original.evaluate_feeders(end)),
            hierarchy::to_text(restored.evaluate_feeders(end)));

  // Refitting from the restored config (feeder family included) and
  // replaying the same readings reproduces the checkpoint.
  OnlineMonitor refit(restored.config());
  refit.fit(data_, split_);
  feed(refit, 0, kSlotsPerWeek / 2);
  EXPECT_EQ(saved(refit), bytes);
}

TEST_P(FleetRoundTrip, EveryFlippedPipelineByteIsRejected) {
  PipelineConfig config = pipeline_config();
  FdetaPipeline original(config);
  const meter::Dataset small = datagen::small_dataset(2, 10, 43);
  original.fit(small);
  const std::string bytes = saved(original);
  FdetaPipeline target(config);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    std::istringstream in(flipped, std::ios::binary);
    EXPECT_THROW(target.load_model(in), DataError)
        << "flipped byte " << at << " of " << bytes.size();
    if (HasFailure()) return;
  }
}

std::string family_name(
    const ::testing::TestParamInfo<std::string_view>& info) {
  std::string name(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, FleetRoundTrip,
                         ::testing::ValuesIn(registered_detector_names()),
                         family_name);

}  // namespace
}  // namespace fdeta::core
