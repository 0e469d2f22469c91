// A simulated AMI reporting plane: smart meters push half-hour readings to
// the utility head-end over a message bus that an insider can tamper with.
//
// The paper's attack model (Section IV) assumes "either the smart meter or
// the communication link has been compromised, and the attacker is now an
// insider in the system".  This module makes that operational: attack
// injections are man-in-the-middle mutations of in-flight reading reports,
// and the head-end's collected view is exactly the reported dataset D' that
// the detectors judge.
//
// The plane is NOT a perfect channel: a FaultPlan (ami/faults.h) can drop,
// duplicate, reorder, delay, and corrupt reports on a logical slot clock.
// The ingest path is hardened against that: every report carries a sequence
// number, the head-end deduplicates (newest-sequence-wins, stale duplicates
// rejected) and quarantines out-of-range values, and the network runs a
// NACK-driven retransmit pass with a bounded retry budget and exponential
// backoff in logical time.
//
// Telemetry (obs/metrics.h): per-delivery accounting of the reporting plane
// - ami.messages_sent / ami.messages_tampered / ami.messages_dropped /
// ami.deliveries / ami.retries / ami.late_accepted from the network side,
// ami.reports_received, ami.reports_overwritten, one counter per report
// fate (ami.reports_accepted / ami.duplicates_suppressed /
// ami.reports_stale_rejected / ami.reports_quarantined /
// ami.reports_too_late), and the ami.reports_missing and ami.slots_held
// gauges from the head-end side.  Pass a MetricsRegistry to isolate an
// instance; null uses the process-wide default registry.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/sharding.h"
#include "common/units.h"
#include "meter/dataset.h"

namespace fdeta {
namespace obs {
class Counter;
class EventLog;
class Gauge;
class MetricsRegistry;
}  // namespace obs
}  // namespace fdeta

namespace fdeta::ami {

class FaultPlan;

/// One meter-to-head-end message.  `sequence` totally orders the reports a
/// meter emits for one slot (retransmissions and later transmit rounds carry
/// higher numbers), so the head-end can tell a fresh retransmit from a stale
/// duplicate that the mesh delivered late.
struct ReadingReport {
  std::size_t consumer_index = 0;
  SlotIndex slot = 0;
  Kw kw = 0.0;
  std::uint32_t sequence = 0;
};

/// A man-in-the-middle transformation: returns the (possibly mutated)
/// message to forward, or nullopt to drop it.
using Interceptor =
    std::function<std::optional<ReadingReport>(const ReadingReport&)>;

/// What the head-end did with one delivered report.  Every report gets
/// exactly one fate, so received = accepted + duplicate + stale +
/// quarantined + too late.
enum class ReceiveOutcome : std::uint8_t {
  kAccepted,     ///< stored (first report, or newer sequence overwrote)
  kDuplicate,    ///< same sequence already stored; suppressed
  kStale,        ///< older sequence than stored; rejected
  kQuarantined,  ///< non-finite / out-of-range value; never stored
  kTooLate,      ///< its slot is closed (HeadEnd::close_before); dropped
};

/// How the head-end splits its per-consumer state.
struct HeadEndConfig {
  /// Independent per-consumer state shards, each behind its own lock (0 =
  /// auto-size from the parallelism; see common/sharding.h).  Purely a
  /// concurrency knob: stored readings and tallies are identical for any
  /// value given the same delivery order.
  std::size_t shards = 0;
};

/// The utility-side collector.  Missing readings stay NaN-free: they are
/// tracked explicitly so the balance layer can treat "no report" distinctly
/// from "zero demand".
///
/// Layout: cells exist only for open slots.  A slot's row - one cell (value,
/// sequence, received flag) per consumer - opens with the first report for
/// that slot and never moves; close_before() releases it.  The constructor
/// allocates no cell, so the head-end holds consumer_count() x open slots:
/// one row for a caller that transmits and reads one slot per call, a
/// week's rows for one that transmits a week per call.  One slot's
/// deliveries, its NACK scan and its read-out each walk one row.  A closed
/// slot is gone for good: a report for it is kTooLate, and reading it
/// throws.
///
/// Thread-safety: per-consumer state is sharded (contiguous ranges of
/// consumer indexes) with one lock per shard, so concurrent receive() /
/// receive_batch() calls from multiple collector feeds are safe and scale
/// until feeds collide on a shard.  Opening a row is the one step that
/// spans shards: the first report for a slot allocates its row under one
/// mutex and publishes it through the slot's atomic row pointer, so feeds
/// racing on a new slot open it once, and every other report pays one
/// pointer load.  Each call counts its outcomes locally and publishes them
/// to the atomic tallies and the registry once, after it has applied its
/// reports.  Readers (has_reading / reading), close_before() and the
/// tallies are unsynchronised with the feeds: quiesce the feeds before
/// calling them (the transmit -> collect cycle already alternates phases).
class HeadEnd {
 public:
  /// `metrics` (null: the default registry) must outlive the head-end,
  /// whose destructor takes its held rows off ami.slots_held.
  HeadEnd(std::size_t consumers, std::size_t slots,
          obs::MetricsRegistry* metrics = nullptr, HeadEndConfig config = {});
  ~HeadEnd();

  HeadEnd(const HeadEnd&) = delete;
  HeadEnd& operator=(const HeadEnd&) = delete;

  /// Ingests one report.  A report for a closed slot is kTooLate.
  /// Otherwise newest-sequence-wins: a report whose sequence is older than
  /// the stored one is rejected (kStale), an equal sequence is a suppressed
  /// duplicate, and a corrupt/out-of-range value is quarantined without
  /// touching the stored reading.  ami.reports_received counts every call
  /// regardless of outcome (delivery-side conservation).
  /// Thread-safe: takes the consumer's shard lock.
  ReceiveOutcome receive(const ReadingReport& report);

  /// Ingests one delivery batch on the calling thread: one stable counting
  /// sort buckets the reports by shard, and each bucket is applied under its
  /// shard's lock.  Reports for the same consumer apply in batch order, so
  /// the returned outcomes (index-aligned with `reports`) and all stored
  /// state are identical to calling receive() once per report in batch
  /// order - for any shard count.  Validates every index up front; on
  /// failure nothing is applied.
  std::vector<ReceiveOutcome> receive_batch(
      std::span<const ReadingReport> reports);

  /// Closes every slot below `first` and releases its row.  A `first` at
  /// or below closed_before() changes nothing.  Needs the feeds quiesced.
  /// MeterNetwork::transmit(first, last) calls it before sending, so
  /// [first, last) stays readable until the next transmit.
  void close_before(SlotIndex first);

  /// Slots below this one are closed (0 until close_before() moves it).
  SlotIndex closed_before() const { return closed_; }

  std::size_t consumer_count() const { return consumers_; }
  std::size_t slot_count() const { return slots_; }

  /// Resolved shard count (config.shards, or the auto-sized value).
  std::size_t shard_count() const { return shards_.count(); }

  /// Whether the cell holds an accepted report.  Throws InvalidArgument for
  /// an index out of range or a closed slot.
  bool has_reading(std::size_t consumer, SlotIndex slot) const {
    const Cell* cell = cell_of(consumer, slot);
    return cell != nullptr && cell->received != 0;
  }

  /// The accepted reading; throws InvalidArgument where has_reading() is
  /// false or throws.
  Kw reading(std::size_t consumer, SlotIndex slot) const {
    const Cell* cell = cell_of(consumer, slot);
    require(cell != nullptr && cell->received != 0,
            "HeadEnd::reading: missing reading");
    return cell->value;
  }

  /// Cells (over all consumers and the whole horizon) that never received
  /// a report, closed slots included.  O(1).
  std::size_t missing_count() const {
    return missing_.load(std::memory_order_relaxed);
  }

  /// Report fates (also exported as ami.* counters).
  std::size_t accepted_count() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::size_t quarantined_count() const {
    return quarantined_.load(std::memory_order_relaxed);
  }
  std::size_t duplicates_suppressed() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  std::size_t stale_rejected() const {
    return stale_.load(std::memory_order_relaxed);
  }
  std::size_t too_late_count() const {
    return too_late_.load(std::memory_order_relaxed);
  }

 private:
  /// One consumer's state for one open slot.
  struct Cell {
    Kw value = 0.0;
    std::uint32_t sequence = 0;
    char received = 0;
  };

  /// Outcome counts of one receive() / receive_batch() call, published once
  /// per call.  Accepted reports are `filled` + `overwritten`.
  struct Tally {
    std::uint64_t received = 0;
    std::uint64_t overwritten = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t stale = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t too_late = 0;
    std::uint64_t filled = 0;  ///< cells that stopped being missing
  };

  /// The cell of a held slot, or null if no report has opened its row.
  const Cell* cell_of(std::size_t consumer, SlotIndex slot) const {
    require(consumer < consumers_, "HeadEnd: consumer out of range");
    require(slot >= closed_ && slot < slots_,
            "HeadEnd: slot closed or out of range");
    const Cell* row = rows_[slot].load(std::memory_order_acquire);
    return row != nullptr ? row + consumer : nullptr;
  }

  /// Returns `slot`'s row, allocating and publishing it if no feed has yet.
  Cell* open_row(SlotIndex slot);

  /// receive() body, minus locking and publishing; the caller holds the
  /// consumer's shard lock.
  ReceiveOutcome apply(const ReadingReport& report, Tally& tally);

  /// Adds a call's tally to the atomics and the ami.* counters, and sets
  /// ami.reports_missing if the call filled a cell.
  void publish(const Tally& tally);

  std::size_t consumers_;
  std::size_t slots_;
  /// rows_[t] is slot t's row of consumers_ cells, or null while no report
  /// has opened it and after it closed.  Owned here: released by
  /// close_before() and the destructor.
  std::unique_ptr<std::atomic<Cell*>[]> rows_;
  /// Slots below closed_ are closed; written only with the feeds quiesced.
  SlotIndex closed_ = 0;
  /// Serialises feeds that race to open the same row.
  std::mutex open_mutex_;

  // Shard layer: each shard owns a contiguous range of consumers' cells in
  // every row.  Its per-shard health series are "ami.shardNN.*".
  ShardLayer shards_;

  // Tallies are atomic so concurrent feeds keep them exact (relaxed order:
  // they are monotone counts, never used to synchronise state).  Each call
  // adds to them once.
  std::atomic<std::size_t> missing_{0};
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> quarantined_{0};
  std::atomic<std::size_t> duplicates_{0};
  std::atomic<std::size_t> stale_{0};
  std::atomic<std::size_t> too_late_{0};

  obs::Counter* reports_received_ = nullptr;
  obs::Counter* reports_overwritten_ = nullptr;
  obs::Counter* reports_accepted_ = nullptr;
  obs::Counter* duplicates_suppressed_ = nullptr;
  obs::Counter* stale_rejected_ = nullptr;
  obs::Counter* quarantined_counter_ = nullptr;
  obs::Counter* too_late_counter_ = nullptr;
  obs::Gauge* missing_gauge_ = nullptr;
  obs::Gauge* slots_held_ = nullptr;  ///< +1 per row opened, -1 per closed
};

/// NACK-driven repair budget for transmit(): after the initial pass the
/// network asks the head-end which slots are still missing and retransmits
/// them, up to `max_retries` rounds, waiting `backoff_base_slots << round`
/// logical slots between rounds (exponential backoff on the slot clock).
/// The whole wait, backoff_base_slots * (2^max_retries - 1), must not exceed
/// a quarter of the slot clock's range (set_retransmit checks).
struct RetransmitPolicy {
  std::size_t max_retries = 0;  ///< 0 = fire-and-forget (legacy behaviour)
  std::size_t backoff_base_slots = 1;
};

/// The field network: walks a ground-truth dataset, emitting one report per
/// consumer per slot, passing each through the interceptor chain and the
/// fault plan (if any), then running the retransmit pass.
class MeterNetwork {
 public:
  explicit MeterNetwork(const meter::Dataset& actual,
                        obs::MetricsRegistry* metrics = nullptr,
                        obs::EventLog* events = nullptr);

  /// Appends an interceptor; interceptors run in insertion order, on
  /// retransmissions too (the MITM sits on the link, not in the meter).
  void add_interceptor(Interceptor interceptor);

  /// Installs a fault plan (ami/faults.h) applied to every delivery attempt
  /// after the interceptor chain.
  void set_fault_plan(FaultPlan plan);

  /// Configures the NACK-driven retransmit pass.  Throws InvalidArgument
  /// for a zero backoff with retries, or a whole wait past the slot clock's
  /// bound (RetransmitPolicy).
  void set_retransmit(RetransmitPolicy policy);

  /// Transmits all consumers' readings for slots [first, last) to the
  /// head-end: initial slot-major pass on the logical clock (delayed
  /// deliveries drain when due), then up to max_retries NACK rounds for
  /// slots the head-end still reports missing, then a final drain of the
  /// delay queue.  Deliveries reach the head-end through receive_batch(),
  /// one batch per slot row (plus the delayed reports that came due), in
  /// the order a report-by-report replay would deliver them.  Emits one
  /// delivery_summary event per call.  Before sending it closes the
  /// head-end's slots below `first` (HeadEnd::close_before): nothing for
  /// them is in flight, since every call drains its own delay queue and
  /// NACK rounds, so [first, last) is readable until the next call.
  /// Throws InvalidArgument before sending anything if the range is bad,
  /// the head-end does not cover the dataset's consumers and slots
  /// [0, last), or `first` lies below the head-end's closed_before().
  void transmit(HeadEnd& head_end, SlotIndex first, SlotIndex last);

  std::size_t messages_sent() const { return messages_sent_; }
  std::size_t messages_tampered() const { return messages_tampered_; }
  std::size_t messages_dropped() const { return messages_dropped_; }
  std::size_t messages_retried() const { return messages_retried_; }
  /// Delayed deliveries that still won the sequence race.
  std::size_t late_accepted() const { return late_accepted_; }

 private:
  const meter::Dataset* actual_;
  std::vector<Interceptor> interceptors_;
  std::shared_ptr<const FaultPlan> fault_plan_;
  RetransmitPolicy retransmit_;
  /// Sequence-number base for the next transmit() round; each call reserves
  /// max_retries + 1 numbers per slot so a later call's reports always
  /// outrank an earlier call's (last-write-wins across transmits, preserved
  /// from the pre-sequence plane).
  std::uint32_t round_ = 0;
  std::size_t messages_sent_ = 0;
  std::size_t messages_tampered_ = 0;
  std::size_t messages_dropped_ = 0;
  std::size_t messages_retried_ = 0;
  std::size_t late_accepted_ = 0;
  /// Deliveries staged for the head-end's next receive_batch(), and whether
  /// each came off the delay queue (for late_accepted).  Members only so
  /// their capacity is reused across transmit() calls.
  std::vector<ReadingReport> staged_;
  std::vector<char> staged_late_;

  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* tampered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* deliveries_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* late_accepted_counter_ = nullptr;
  obs::EventLog* events_ = nullptr;  // never null after construction
};

/// Interceptor scaling one consumer's readings by `factor` (< 1 under-
/// reports: Attack Classes 2A/2B from the wire).
Interceptor scale_interceptor(std::size_t consumer_index, double factor);

/// Interceptor replacing one consumer's readings for slots
/// [first, first + vector size) with a precomputed attack vector.
Interceptor replace_interceptor(std::size_t consumer_index, SlotIndex first,
                                std::vector<Kw> attack_vector);

}  // namespace fdeta::ami
