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
// ami.reports_received / ami.reports_overwritten /
// ami.duplicates_suppressed / ami.reports_stale_rejected /
// ami.reports_quarantined and the ami.reports_missing gauge from the
// head-end side.  Pass a MetricsRegistry to isolate an instance; null uses
// the process-wide default registry.
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

#include "common/units.h"
#include "meter/dataset.h"

namespace fdeta {
namespace obs {
class Counter;
class EventLog;
class Gauge;
class Histogram;
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

/// What the head-end did with one delivered report.
enum class ReceiveOutcome : std::uint8_t {
  kAccepted,     ///< stored (first report, or newer sequence overwrote)
  kDuplicate,    ///< same sequence already stored; suppressed
  kStale,        ///< older sequence than stored; rejected
  kQuarantined,  ///< non-finite / out-of-range value; never stored
};

/// Ingest-hardening knobs for the head-end.
struct HeadEndConfig {
  /// Reports above this (or negative, or non-finite) are quarantined: the
  /// slot stays missing so the retransmit pass can repair it with a clean
  /// copy.  Legitimate demand is non-negative by construction (the
  /// generator clamps at 0), so the default only rejects impossible values.
  double max_plausible_kw = 1.0e6;
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
/// Layout: the stored state is slot-major, one row of consumer_count()
/// cells per slot (cell [t * consumers + c]), so one slot's deliveries, its
/// NACK scan and its read-out each walk one contiguous row.
///
/// Thread-safety: per-consumer state is sharded (consistent hash of the
/// consumer index) with one lock per shard, so concurrent receive() /
/// receive_batch() calls from multiple collector feeds are safe and scale
/// until feeds collide on a shard.  Each call counts its outcomes locally
/// and publishes them to the atomic tallies and the registry once, after
/// it has applied its reports.  Readers (has_reading / reading /
/// consumer_readings) are unsynchronised and the tallies lag a call in
/// flight: quiesce the feeds before reading collected state (the transmit
/// -> collect cycle already alternates phases).
class HeadEnd {
 public:
  HeadEnd(std::size_t consumers, std::size_t slots,
          obs::MetricsRegistry* metrics = nullptr, HeadEndConfig config = {});

  /// Ingests one report.  Newest-sequence-wins: a report whose sequence is
  /// older than the stored one is rejected (kStale), an equal sequence is a
  /// suppressed duplicate, and a corrupt/out-of-range value is quarantined
  /// without touching the stored reading.  ami.reports_received counts every
  /// call regardless of outcome (delivery-side conservation).
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

  std::size_t consumer_count() const { return consumers_; }
  std::size_t slot_count() const { return slots_; }

  /// Resolved shard count (config.shards, or the auto-sized value).
  std::size_t shard_count() const { return shard_count_; }

  bool has_reading(std::size_t consumer, SlotIndex slot) const;
  Kw reading(std::size_t consumer, SlotIndex slot) const;

  /// Reported readings for one consumer (missing slots filled with 0),
  /// gathered from its column of the slot rows.
  /// Prefer the mask overload below: a 0 here is indistinguishable from a
  /// dropped report, and downstream consumers must not impute demand.
  std::vector<Kw> consumer_readings(std::size_t consumer) const;

  /// As above, but also fills `missing_mask` (resized to slot_count()) with
  /// 1 for every slot that never received a report, so callers can count
  /// missing readings instead of imputing 0.
  std::vector<Kw> consumer_readings(std::size_t consumer,
                                    std::vector<char>& missing_mask) const;

  /// Slots (over all consumers) that never received a report.  O(1).
  std::size_t missing_count() const {
    return missing_.load(std::memory_order_relaxed);
  }

  /// Ingest-hardening tallies (also exported as ami.* counters).
  std::size_t quarantined_count() const {
    return quarantined_.load(std::memory_order_relaxed);
  }
  std::size_t duplicates_suppressed() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  std::size_t stale_rejected() const {
    return stale_.load(std::memory_order_relaxed);
  }

 private:
  /// Outcome counts of one receive() / receive_batch() call, published once
  /// per call.
  struct Tally {
    std::uint64_t received = 0;
    std::uint64_t overwritten = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t stale = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t filled = 0;  ///< cells that stopped being missing
  };

  /// receive() body, minus locking and publishing; the caller holds the
  /// consumer's shard lock.
  ReceiveOutcome apply(const ReadingReport& report, Tally& tally);

  /// Adds a call's tally to the atomics and the ami.* counters, and sets
  /// ami.reports_missing if the call filled a cell.
  void publish(const Tally& tally);

  std::size_t consumers_;
  std::size_t slots_;
  HeadEndConfig config_;
  // Slot-major rows ([t * consumers_ + c]): one allocation per field for
  // the whole horizon instead of three vectors per consumer.
  std::vector<Kw> values_;
  std::vector<char> received_;
  std::vector<std::uint32_t> sequences_;

  // Shard layer: shard_of(c, shard_count_) owns consumer c's cells above.
  std::size_t shard_count_ = 1;
  std::unique_ptr<std::mutex[]> shard_locks_;

  // Tallies are atomic so concurrent feeds keep them exact (relaxed order:
  // they are monotone counts, never used to synchronise state).  Each call
  // adds to them once.
  std::atomic<std::size_t> missing_{0};
  std::atomic<std::size_t> quarantined_{0};
  std::atomic<std::size_t> duplicates_{0};
  std::atomic<std::size_t> stale_{0};

  obs::Counter* reports_received_ = nullptr;
  obs::Counter* reports_overwritten_ = nullptr;
  obs::Counter* duplicates_suppressed_ = nullptr;
  obs::Counter* stale_rejected_ = nullptr;
  obs::Counter* quarantined_counter_ = nullptr;
  obs::Gauge* missing_gauge_ = nullptr;

  // Per-shard health series ("ami.shardNN.*"): lock-wait latency, batch
  // depth and high-water per shard, plus a max/mean load-imbalance gauge.
  // Bounded cardinality (at most 64 instrumented slots; wider fleets alias
  // via s % 64); updated only on the batched receive path, one histogram
  // observation and three gauge stores per shard per batch.
  std::vector<obs::Gauge*> shard_pending_;
  std::vector<obs::Gauge*> shard_highwater_;
  std::vector<obs::Histogram*> shard_lock_wait_;
  obs::Gauge* shard_imbalance_ = nullptr;
  /// Cumulative reports applied per shard (atomic: a feed reads every
  /// shard's count for the imbalance gauge while others apply).
  std::unique_ptr<std::atomic<std::uint64_t>[]> shard_received_counts_;
};

/// NACK-driven repair budget for transmit(): after the initial pass the
/// network asks the head-end which slots are still missing and retransmits
/// them, up to `max_retries` rounds, waiting `backoff_base_slots << round`
/// logical slots between rounds (exponential backoff on the slot clock).
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

  /// Configures the NACK-driven retransmit pass.
  void set_retransmit(RetransmitPolicy policy);

  /// Transmits all consumers' readings for slots [first, last) to the
  /// head-end: initial slot-major pass on the logical clock (delayed
  /// deliveries drain when due), then up to max_retries NACK rounds for
  /// slots the head-end still reports missing, then a final drain of the
  /// delay queue.  Deliveries reach the head-end through receive_batch(),
  /// one batch per slot row (plus the delayed reports that came due), in
  /// the order a report-by-report replay would deliver them.  Emits one
  /// delivery_summary event per call.  Throws InvalidArgument before
  /// sending anything if the range is bad or the head-end does not cover
  /// the dataset's consumers and slots [0, last).
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
