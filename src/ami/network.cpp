#include "ami/network.h"

#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "ami/faults.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fdeta::ami {

HeadEnd::HeadEnd(std::size_t consumers, std::size_t slots,
                 obs::MetricsRegistry* metrics, HeadEndConfig config)
    : consumers_(consumers),
      slots_(slots),
      rows_(std::make_unique<std::atomic<Cell*>[]>(slots)),
      missing_(consumers * slots) {
  obs::MetricsRegistry& registry =
      metrics != nullptr ? *metrics : obs::default_registry();
  shards_ = ShardLayer(config.shards, consumers, parallel_width(0), registry,
                       "ami");
  reports_received_ = &registry.counter("ami.reports_received");
  reports_overwritten_ = &registry.counter("ami.reports_overwritten");
  reports_accepted_ = &registry.counter("ami.reports_accepted");
  duplicates_suppressed_ = &registry.counter("ami.duplicates_suppressed");
  stale_rejected_ = &registry.counter("ami.reports_stale_rejected");
  quarantined_counter_ = &registry.counter("ami.reports_quarantined");
  too_late_counter_ = &registry.counter("ami.reports_too_late");
  missing_gauge_ = &registry.gauge("ami.reports_missing");
  missing_gauge_->set(static_cast<std::int64_t>(missing_count()));
  slots_held_ = &registry.gauge("ami.slots_held");
}

HeadEnd::~HeadEnd() { close_before(slots_); }

HeadEnd::Cell* HeadEnd::open_row(SlotIndex slot) {
  std::lock_guard<std::mutex> lock(open_mutex_);
  Cell* row = rows_[slot].load(std::memory_order_relaxed);
  if (row == nullptr) {
    row = new Cell[consumers_]();
    rows_[slot].store(row, std::memory_order_release);
    slots_held_->add(1);
  }
  return row;
}

void HeadEnd::close_before(SlotIndex first) {
  require(first <= slots_, "HeadEnd::close_before: slot out of range");
  for (; closed_ < first; ++closed_) {
    Cell* row = rows_[closed_].exchange(nullptr, std::memory_order_relaxed);
    if (row != nullptr) {
      delete[] row;
      slots_held_->add(-1);
    }
  }
}

ReceiveOutcome HeadEnd::apply(const ReadingReport& report, Tally& tally) {
  // Every delivered message is accounted here, whatever its fate, so the
  // plane-level conservation identity received == sent - dropped holds.
  ++tally.received;

  if (report.slot < closed_) {
    // The slot's row is gone: no transmit over it is still running, so
    // this came from outside the plane's own delivery cycle.
    ++tally.too_late;
    return ReceiveOutcome::kTooLate;
  }

  if (!std::isfinite(report.kw) || report.kw < 0.0 ||
      report.kw > kMaxPlausibleKw) {
    // Corrupt or impossible value: never store it.  The slot stays missing,
    // so the NACK retransmit pass will ask for a clean copy.
    ++tally.quarantined;
    return ReceiveOutcome::kQuarantined;
  }

  Cell* row = rows_[report.slot].load(std::memory_order_acquire);
  if (row == nullptr) row = open_row(report.slot);
  Cell& cell = row[report.consumer_index];
  if (cell.received) {
    if (report.sequence == cell.sequence) {
      ++tally.duplicates;
      return ReceiveOutcome::kDuplicate;
    }
    if (report.sequence < cell.sequence) {
      // A delayed copy of an older transmission must not clobber the
      // fresher reading (the stale-duplicate bug this path fixes).
      ++tally.stale;
      return ReceiveOutcome::kStale;
    }
    cell.value = report.kw;
    cell.sequence = report.sequence;
    ++tally.overwritten;
    return ReceiveOutcome::kAccepted;
  }

  cell.value = report.kw;
  cell.sequence = report.sequence;
  cell.received = 1;
  ++tally.filled;
  return ReceiveOutcome::kAccepted;
}

void HeadEnd::publish(const Tally& tally) {
  // Zero counts are skipped, so a single receive() touches only the
  // counters its one outcome moves.
  constexpr auto relaxed = std::memory_order_relaxed;
  if (tally.received > 0) reports_received_->add(tally.received);
  if (tally.overwritten > 0) reports_overwritten_->add(tally.overwritten);
  const std::uint64_t accepted = tally.filled + tally.overwritten;
  if (accepted > 0) {
    reports_accepted_->add(accepted);
    accepted_.fetch_add(accepted, relaxed);
  }
  if (tally.duplicates > 0) {
    duplicates_suppressed_->add(tally.duplicates);
    duplicates_.fetch_add(tally.duplicates, relaxed);
  }
  if (tally.stale > 0) {
    stale_rejected_->add(tally.stale);
    stale_.fetch_add(tally.stale, relaxed);
  }
  if (tally.quarantined > 0) {
    quarantined_counter_->add(tally.quarantined);
    quarantined_.fetch_add(tally.quarantined, relaxed);
  }
  if (tally.too_late > 0) {
    too_late_counter_->add(tally.too_late);
    too_late_.fetch_add(tally.too_late, relaxed);
  }
  if (tally.filled > 0) {
    const std::size_t left =
        missing_.fetch_sub(tally.filled, relaxed) - tally.filled;
    missing_gauge_->set(static_cast<std::int64_t>(left));
  }
}

ReceiveOutcome HeadEnd::receive(const ReadingReport& report) {
  require(report.consumer_index < consumers_,
          "HeadEnd::receive: consumer out of range");
  require(report.slot < slots_, "HeadEnd::receive: slot out of range");
  Tally tally;
  ReceiveOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(shards_.lock_of(report.consumer_index));
    outcome = apply(report, tally);
  }
  publish(tally);
  return outcome;
}

std::vector<ReceiveOutcome> HeadEnd::receive_batch(
    std::span<const ReadingReport> reports) {
  for (const auto& r : reports) {  // validate before mutating any state
    require(r.consumer_index < consumers_,
            "HeadEnd::receive: consumer out of range");
    require(r.slot < slots_, "HeadEnd::receive: slot out of range");
  }

  // The sequence race is decided per consumer, never across consumers, so
  // applying by shard matches a serial receive() replay.  One thread: the
  // per-report work (a compare and three stores) is too small to pay for a
  // hand-off; run in turn, the shards can share one tally.
  std::vector<ReceiveOutcome> outcomes(reports.size(),
                                       ReceiveOutcome::kAccepted);
  Tally tally;
  shards_.apply_batch(
      reports,
      [&](std::span<const std::size_t> positions) {
        for (const std::size_t r : positions) {
          outcomes[r] = apply(reports[r], tally);
        }
      },
      /*threads=*/1);
  publish(tally);
  return outcomes;
}

MeterNetwork::MeterNetwork(const meter::Dataset& actual,
                           obs::MetricsRegistry* metrics,
                           obs::EventLog* events)
    : actual_(&actual) {
  obs::MetricsRegistry& registry =
      metrics != nullptr ? *metrics : obs::default_registry();
  sent_counter_ = &registry.counter("ami.messages_sent");
  tampered_counter_ = &registry.counter("ami.messages_tampered");
  dropped_counter_ = &registry.counter("ami.messages_dropped");
  deliveries_counter_ = &registry.counter("ami.deliveries");
  retries_counter_ = &registry.counter("ami.retries");
  late_accepted_counter_ = &registry.counter("ami.late_accepted");
  events_ = events != nullptr ? events : &obs::default_event_log();
}

void MeterNetwork::set_fault_plan(FaultPlan plan) {
  fault_plan_ = std::make_shared<const FaultPlan>(std::move(plan));
}

void MeterNetwork::set_retransmit(RetransmitPolicy policy) {
  if (policy.max_retries > 0) {
    require(policy.backoff_base_slots > 0,
            "MeterNetwork::set_retransmit: backoff base must be positive");
    // transmit() advances its slot clock by backoff << (round - 1) per
    // round, backoff * (2^retries - 1) in all.  That sum must stay within a
    // quarter of the clock's range, leaving room for the horizon and the
    // fault plan's delays; checked without overflow (the bound also keeps
    // every shift below the word width).
    constexpr SlotIndex kMaxBackoffSlots =
        std::numeric_limits<SlotIndex>::max() / 4;
    const bool fits =
        policy.max_retries < std::numeric_limits<SlotIndex>::digits - 1 &&
        policy.backoff_base_slots <=
            kMaxBackoffSlots / ((SlotIndex{1} << policy.max_retries) - 1);
    require(fits,
            "MeterNetwork::set_retransmit: the retries' cumulative backoff, "
            "backoff * (2^retries - 1), overflows the slot clock");
  }
  retransmit_ = policy;
}

void MeterNetwork::transmit(HeadEnd& head_end, SlotIndex first,
                            SlotIndex last) {
  obs::TraceSpan span("ami.transmit", "ami");
  require(first <= last && last <= actual_->slot_count(),
          "MeterNetwork::transmit: bad slot range");
  const std::size_t consumers = actual_->consumer_count();
  require(head_end.consumer_count() >= consumers &&
              head_end.slot_count() >= last,
          "MeterNetwork::transmit: head-end does not cover the dataset's "
          "consumers and slots");
  require(first >= head_end.closed_before(),
          "MeterNetwork::transmit: the head-end has closed slots in range");
  // Nothing for a slot below `first` is in flight: every earlier call
  // drained its own delay queue and NACK rounds before returning.
  head_end.close_before(first);
  const std::size_t sent_before = messages_sent_;
  const std::size_t tampered_before = messages_tampered_;
  const std::size_t dropped_before = messages_dropped_;
  const std::size_t retried_before = messages_retried_;
  const std::size_t late_before = late_accepted_;

  // Reserve a sequence band for this transmit round: attempt k carries
  // round_base + k, and the next transmit() starts above this band, so its
  // reports always outrank ours (last-write-wins across calls, exactly the
  // pre-sequence plane's behaviour).
  const std::uint32_t round_base = round_;
  round_ += static_cast<std::uint32_t>(retransmit_.max_retries) + 1;

  // Reorder channel: deliveries deferred on the logical slot clock, drained
  // in (due slot, enqueue order) so the replay is deterministic.
  struct Pending {
    SlotIndex due;
    std::uint64_t order;
    ReadingReport report;
  };
  const auto later = [](const Pending& a, const Pending& b) {
    return a.due != b.due ? a.due > b.due : a.order > b.order;
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(later)> delayed(
      later);
  std::uint64_t enqueue_order = 0;

  // Deliveries are staged in delivery order and handed to the head-end as
  // one batch per slot row.  Every flush comes before the next read of
  // head-end state (a NACK scan of a later row, or the delivery summary),
  // and a report only changes the cell it names, so each report meets the
  // same stored state - and gets the same outcome - as if it had been
  // delivered alone.  The exception is an interceptor that moves a report
  // to another consumer: a NACK scan may then read that cell before the
  // moved report lands.  scale_interceptor and replace_interceptor never
  // move reports.
  staged_.clear();
  staged_late_.clear();
  const auto stage = [&](const ReadingReport& report, bool late) {
    staged_.push_back(report);
    staged_late_.push_back(late ? 1 : 0);
  };
  const auto flush = [&] {
    if (staged_.empty()) return;
    const std::vector<ReceiveOutcome> outcomes =
        head_end.receive_batch(staged_);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (staged_late_[i] && outcomes[i] == ReceiveOutcome::kAccepted) {
        ++late_accepted_;
      }
    }
    staged_.clear();
    staged_late_.clear();
  };
  const auto drain_due = [&](SlotIndex now) {
    while (!delayed.empty() && delayed.top().due <= now) {
      stage(delayed.top().report, /*late=*/true);
      delayed.pop();
    }
  };

  // One delivery attempt: interceptor chain (the MITM tampers with retries
  // too), then the fault plan's channels.
  const auto send = [&](std::size_t c, SlotIndex t, SlotIndex now,
                        std::uint32_t attempt) {
    ReadingReport report{c, t, actual_->consumer(c).readings[t],
                         round_base + attempt};
    ++messages_sent_;
    bool tampered = false;
    for (const auto& interceptor : interceptors_) {
      const auto out = interceptor(report);
      if (!out.has_value()) {
        ++messages_dropped_;
        return;
      }
      if (out->kw != report.kw || out->slot != report.slot ||
          out->consumer_index != report.consumer_index) {
        tampered = true;
      }
      report = *out;
    }
    if (tampered) ++messages_tampered_;
    if (fault_plan_ == nullptr) {
      stage(report, /*late=*/false);
      return;
    }
    const DeliveryAttempt outcome = fault_plan_->apply(report, now, attempt);
    if (outcome.dropped) {
      ++messages_dropped_;
      return;
    }
    // Each duplicate copy is another frame the mesh carried, so it counts
    // as sent; all copies share one sequence number and the head-end
    // suppresses the extras.
    messages_sent_ += outcome.duplicates;
    const std::size_t copies = 1 + outcome.duplicates;
    for (std::size_t k = 0; k < copies; ++k) {
      if (outcome.delay_slots > 0) {
        delayed.push({now + outcome.delay_slots, enqueue_order++,
                      outcome.report});
      } else {
        stage(outcome.report, /*late=*/false);
      }
    }
  };

  // Initial pass, slot-major on the logical clock: deferred deliveries come
  // due while later slots transmit, which is how a delayed original can
  // arrive after its own retransmission.
  for (SlotIndex t = first; t < last; ++t) {
    drain_due(t);
    for (std::size_t c = 0; c < consumers; ++c) {
      send(c, t, /*now=*/t, /*attempt=*/0);
    }
    flush();
  }

  // NACK rounds: exponential backoff on the slot clock, then ask the
  // head-end which slots are still missing and retransmit only those.  The
  // scan walks slot rows; each consumer still retransmits its slots in
  // ascending order, so per-consumer delivery order matches a
  // consumer-major scan.
  SlotIndex now = last > first ? last - 1 : first;
  for (std::size_t round = 1; round <= retransmit_.max_retries; ++round) {
    now += static_cast<SlotIndex>(retransmit_.backoff_base_slots)
           << (round - 1);
    drain_due(now);
    flush();
    bool any_missing = false;
    for (SlotIndex t = first; t < last; ++t) {
      for (std::size_t c = 0; c < consumers; ++c) {
        if (head_end.has_reading(c, t)) continue;
        any_missing = true;
        ++messages_retried_;
        send(c, t, now, static_cast<std::uint32_t>(round));
      }
      flush();
    }
    if (!any_missing) break;
  }

  // Final flush: everything still in flight lands now, late.
  while (!delayed.empty()) {
    stage(delayed.top().report, /*late=*/true);
    delayed.pop();
  }
  flush();

  deliveries_counter_->add();
  sent_counter_->add(messages_sent_ - sent_before);
  tampered_counter_->add(messages_tampered_ - tampered_before);
  dropped_counter_->add(messages_dropped_ - dropped_before);
  retries_counter_->add(messages_retried_ - retried_before);
  late_accepted_counter_->add(late_accepted_ - late_before);

  if (events_->enabled()) {
    events_->emit("delivery_summary",
                  obs::EventFields{}
                      .u64("first", first)
                      .u64("last", last)
                      .u64("sent", messages_sent_ - sent_before)
                      .u64("tampered", messages_tampered_ - tampered_before)
                      .u64("dropped", messages_dropped_ - dropped_before)
                      .u64("retries", messages_retried_ - retried_before)
                      .u64("late_accepted", late_accepted_ - late_before)
                      .u64("missing_after", head_end.missing_count()));
  }
}

void MeterNetwork::add_interceptor(Interceptor interceptor) {
  require(static_cast<bool>(interceptor),
          "MeterNetwork::add_interceptor: empty interceptor");
  interceptors_.push_back(std::move(interceptor));
}

Interceptor scale_interceptor(std::size_t consumer_index, double factor) {
  require(factor >= 0.0, "scale_interceptor: negative factor");
  return [consumer_index, factor](
             const ReadingReport& report) -> std::optional<ReadingReport> {
    if (report.consumer_index != consumer_index) return report;
    ReadingReport out = report;
    out.kw *= factor;
    return out;
  };
}

Interceptor replace_interceptor(std::size_t consumer_index, SlotIndex first,
                                std::vector<Kw> attack_vector) {
  return [consumer_index, first, attack_vector = std::move(attack_vector)](
             const ReadingReport& report) -> std::optional<ReadingReport> {
    if (report.consumer_index != consumer_index) return report;
    if (report.slot < first || report.slot >= first + attack_vector.size()) {
      return report;
    }
    ReadingReport out = report;
    out.kw = attack_vector[report.slot - first];
    return out;
  };
}

}  // namespace fdeta::ami
