// Deterministic fault injection for the AMI reporting plane.
//
// Real AMI meshes are not the perfect in-order, exactly-once channel the
// original MeterNetwork modelled: they lose, duplicate, reorder, delay, and
// corrupt reports (EnThM motivates hierarchical verification precisely
// because metering data arrives unreliably).  A FaultPlan is a seeded,
// fully deterministic composition of those failure channels - drop,
// duplicate, bounded-delay reorder, value corruption, and mesh-wide burst
// outages - that the MeterNetwork applies to every delivery attempt.
//
// Determinism contract: every decision is a pure function of
// (plan seed, consumer, slot, attempt number).  No global stream position is
// consumed, so the same plan produces byte-identical outcomes regardless of
// delivery order, retransmission history, or thread count - the chaos test
// lane (ctest -L chaos) pins this.
//
// The plan applies its five channels in one fixed order - burst outage,
// drop, corrupt, duplicate, reorder.  The burst channel reads the logical
// clock; the other four draw from the attempt's private RNG, and one whose
// rate is zero draws nothing.  MITM tampering is not a channel: the
// MeterNetwork runs its Interceptor chain before the plan sees the report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ami/network.h"
#include "common/rng.h"

namespace fdeta::ami {

/// Tunable rates for the built-in fault channels.  All rates are per
/// delivery attempt (a retransmission re-rolls with a fresh attempt key).
struct FaultPlanConfig {
  /// P(report silently lost in the mesh).
  double drop_rate = 0.0;
  /// P(an accepted report is delivered twice with the same sequence number).
  double duplicate_rate = 0.0;
  /// P(delivery deferred by 1..max_delay_slots on the logical clock).
  double reorder_rate = 0.0;
  /// Upper bound for the reorder channel's delay queue.
  std::size_t max_delay_slots = 4;
  /// P(payload corrupted in flight: negative, absurdly large, or NaN - all
  /// shapes the head-end quarantine must catch).
  double corrupt_rate = 0.0;
  /// Mesh-wide outage windows on the logical clock: every report sent during
  /// slots [k*period, k*period + length) is lost, for all k.  0 disables.
  std::size_t burst_period_slots = 0;
  std::size_t burst_length_slots = 0;
  /// Seed for the per-attempt decision RNG.
  std::uint64_t seed = 0xC4A05u;
};

/// Parses a "key=value,key=value" spec (the CLI's --fault-plan syntax).
/// Keys: drop, dup, reorder, delay, corrupt, burst-every, burst-len, seed.
/// Throws InvalidArgument on an unknown key or malformed value.
FaultPlanConfig parse_fault_plan(const std::string& spec);

/// What the channels did to one delivery attempt: a drop ends it,
/// corruption rewrites the payload, duplication adds extra copies,
/// reordering defers delivery on the logical clock.
struct DeliveryAttempt {
  ReadingReport report;
  bool dropped = false;
  bool corrupted = false;
  std::size_t duplicates = 0;   ///< extra copies to deliver
  std::size_t delay_slots = 0;  ///< 0 = on time
};

/// A seeded set of fault channels.  Copyable; the MeterNetwork owns a copy,
/// so a plan value can be reused across networks and runs.
class FaultPlan {
 public:
  /// Checks every field of `config`, active channel or not: each rate lies
  /// in [0,1] (NaN is rejected), burst_length_slots <= burst_period_slots
  /// when the period is non-zero, and max_delay_slots > 0 when reorder is
  /// on.  An all-default plan is a no-op.
  explicit FaultPlan(FaultPlanConfig config = {});

  const FaultPlanConfig& config() const { return config_; }

  /// Runs the channels over one delivery attempt sent at logical slot
  /// `sent_at`.  Deterministic: the outcome depends only on the plan seed,
  /// (consumer, slot, attempt) and, for the burst channel, `sent_at`.
  DeliveryAttempt apply(const ReadingReport& report, SlotIndex sent_at,
                        std::uint32_t attempt) const;

 private:
  Rng attempt_rng(const ReadingReport& report, std::uint32_t attempt) const;

  FaultPlanConfig config_;
};

/// The head-end's collected view materialised for the batch pipeline:
/// readings plus an explicit per-slot missing mask, so downstream consumers
/// can gate on coverage instead of scoring imputed values.  Sized from the
/// dataset up front and filled a slot range at a time by
/// collect_reported(), so a caller collects each transmit's slots while the
/// head-end still holds them.
struct CollectedReport {
  /// Shaped like `shape` (ids and types copied), with no slot collected:
  /// every reading 0 and every slot missing.
  explicit CollectedReport(const meter::Dataset& shape);

  /// Missing slots hold the last received reading at the same slot-of-week
  /// position (never an imputed zero); slots never observed at that position
  /// carry 0 and are only usable behind the coverage gate.
  meter::Dataset dataset;
  /// missing[consumer][slot] != 0 for every slot the head-end never accepted.
  std::vector<std::vector<char>> missing;
  /// Slots [0, collected) are filled in.
  SlotIndex collected = 0;

  /// Per-consumer missing-slot counts for one collected week
  /// (coverage-gate input).
  std::vector<std::uint32_t> week_missing(std::size_t week) const;
};

/// Reads slots [first, last) of the head-end into `out`, which collects
/// them in order: `first` must be out.collected, and the slots must still
/// be held (transmit(first, last) leaves them so until the next transmit).
/// A missing cell at slot t takes the collected cell at t - 336, or 0 in
/// week 0: the last accepted reading at its slot-of-week, since a filled
/// cell already carries that value forward.
void collect_reported(const HeadEnd& head_end, SlotIndex first,
                      SlotIndex last, CollectedReport& out);

}  // namespace fdeta::ami
