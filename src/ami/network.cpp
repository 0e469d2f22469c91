#include "ami/network.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <utility>

#include "ami/faults.h"
#include "common/error.h"
#include "common/sharding.h"
#include "common/thread_pool.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fdeta::ami {

namespace {

// Per-shard metric-name cardinality budget (matches the monitor's): at most
// 64 "ami.shardNN" series; wider fleets alias onto s % 64.
constexpr std::size_t kMaxShardSeries = 64;

std::string shard_metric_name(std::size_t slot, const char* what) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ami.shard%02zu.%s", slot, what);
  return buf;
}

}  // namespace

HeadEnd::HeadEnd(std::size_t consumers, std::size_t slots,
                 obs::MetricsRegistry* metrics, HeadEndConfig config)
    : consumers_(consumers), slots_(slots), config_(config),
      missing_(consumers * slots) {
  require(std::isfinite(config_.max_plausible_kw) &&
              config_.max_plausible_kw > 0.0,
          "HeadEnd: max_plausible_kw must be positive and finite");
  values_.assign(consumers * slots, 0.0);
  received_.assign(consumers * slots, 0);
  sequences_.assign(consumers * slots, 0);
  shard_count_ = resolve_shard_count(config_.shards, consumers,
                                     shared_pool().thread_count() + 1);
  shard_locks_ = std::make_unique<std::mutex[]>(shard_count_);
  obs::MetricsRegistry& registry =
      metrics != nullptr ? *metrics : obs::default_registry();
  reports_received_ = &registry.counter("ami.reports_received");
  reports_overwritten_ = &registry.counter("ami.reports_overwritten");
  duplicates_suppressed_ = &registry.counter("ami.duplicates_suppressed");
  stale_rejected_ = &registry.counter("ami.reports_stale_rejected");
  quarantined_counter_ = &registry.counter("ami.reports_quarantined");
  missing_gauge_ = &registry.gauge("ami.reports_missing");
  missing_gauge_->set(static_cast<std::int64_t>(missing_count()));
  shard_imbalance_ = &registry.gauge("ami.shard_imbalance_milli");
  const std::size_t instrumented = std::min(shard_count_, kMaxShardSeries);
  shard_pending_.resize(instrumented);
  shard_highwater_.resize(instrumented);
  shard_lock_wait_.resize(instrumented);
  for (std::size_t s = 0; s < instrumented; ++s) {
    shard_pending_[s] =
        &registry.gauge(shard_metric_name(s, "pending_depth"));
    shard_highwater_[s] =
        &registry.gauge(shard_metric_name(s, "pending_highwater"));
    shard_lock_wait_[s] =
        &registry.histogram(shard_metric_name(s, "lock_wait_seconds"));
  }
  shard_received_counts_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(shard_count_);
}

ReceiveOutcome HeadEnd::apply(const ReadingReport& report, Tally& tally) {
  // Every delivered message is accounted here, whatever its fate, so the
  // plane-level conservation identity received == sent - dropped holds.
  ++tally.received;

  if (!std::isfinite(report.kw) || report.kw < 0.0 ||
      report.kw > config_.max_plausible_kw) {
    // Corrupt or impossible value: never store it.  The slot stays missing,
    // so the NACK retransmit pass will ask for a clean copy.
    ++tally.quarantined;
    return ReceiveOutcome::kQuarantined;
  }

  const std::size_t cell = report.slot * consumers_ + report.consumer_index;
  char& seen = received_[cell];
  std::uint32_t& stored = sequences_[cell];
  if (seen) {
    if (report.sequence == stored) {
      ++tally.duplicates;
      return ReceiveOutcome::kDuplicate;
    }
    if (report.sequence < stored) {
      // A delayed copy of an older transmission must not clobber the
      // fresher reading (the stale-duplicate bug this path fixes).
      ++tally.stale;
      return ReceiveOutcome::kStale;
    }
    values_[cell] = report.kw;
    stored = report.sequence;
    ++tally.overwritten;
    return ReceiveOutcome::kAccepted;
  }

  values_[cell] = report.kw;
  stored = report.sequence;
  seen = 1;
  ++tally.filled;
  return ReceiveOutcome::kAccepted;
}

void HeadEnd::publish(const Tally& tally) {
  // Zero counts are skipped, so a single receive() touches only the
  // counters its one outcome moves.
  constexpr auto relaxed = std::memory_order_relaxed;
  if (tally.received > 0) reports_received_->add(tally.received);
  if (tally.overwritten > 0) reports_overwritten_->add(tally.overwritten);
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
    std::lock_guard<std::mutex> lock(
        shard_locks_[shard_of(report.consumer_index, shard_count_)]);
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

  // Stable counting sort by shard into one index array: reports for the
  // same consumer keep batch order, so outcomes and stored state match a
  // serial receive() replay for any shard count (the sequence race is
  // decided per consumer, never across consumers).  Shard s's bucket is
  // order[bounds[s] .. bounds[s + 1]).
  std::vector<std::size_t> bounds(shard_count_ + 1, 0);
  for (const auto& r : reports) {
    ++bounds[shard_of(r.consumer_index, shard_count_) + 1];
  }
  for (std::size_t s = 0; s < shard_count_; ++s) {
    bounds[s + 1] += bounds[s];
  }
  std::vector<std::size_t> order(reports.size());
  {
    std::vector<std::size_t> next(bounds.begin(), bounds.end() - 1);
    for (std::size_t r = 0; r < reports.size(); ++r) {
      order[next[shard_of(reports[r].consumer_index, shard_count_)]++] = r;
    }
  }

  std::vector<ReceiveOutcome> outcomes(reports.size(),
                                       ReceiveOutcome::kAccepted);
  Tally tally;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::size_t begin = bounds[s];
    const std::size_t end = bounds[s + 1];
    if (begin == end) continue;
    // Per-shard health: time the lock acquisition (contention only) and
    // record the depth this delivery parked on the shard.  Constant work
    // per shard per batch; the per-report loop is untouched.
    const std::size_t m = s % shard_pending_.size();
    const auto depth = static_cast<std::int64_t>(end - begin);
    shard_pending_[m]->set(depth);
    shard_highwater_[m]->update_max(depth);
    obs::ScopedTimer wait(*shard_lock_wait_[m]);
    std::lock_guard<std::mutex> lock(shard_locks_[s]);
    wait.stop();
    for (std::size_t i = begin; i < end; ++i) {
      outcomes[order[i]] = apply(reports[order[i]], tally);
    }
    shard_received_counts_[s].fetch_add(end - begin,
                                        std::memory_order_relaxed);
    shard_pending_[m]->set(0);
  }
  publish(tally);

  // Shard-imbalance gauge (max/mean cumulative load, x1000; 1000 =
  // perfectly balanced).
  std::uint64_t total = 0;
  std::uint64_t max_load = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::uint64_t n =
        shard_received_counts_[s].load(std::memory_order_relaxed);
    total += n;
    max_load = std::max(max_load, n);
  }
  if (total > 0) {
    const double mean =
        static_cast<double>(total) / static_cast<double>(shard_count_);
    shard_imbalance_->set(
        std::llround(1000.0 * static_cast<double>(max_load) / mean));
  }
  return outcomes;
}

bool HeadEnd::has_reading(std::size_t consumer, SlotIndex slot) const {
  require(consumer < consumers_, "HeadEnd::has_reading: out of range");
  require(slot < slots_, "HeadEnd::has_reading: slot out of range");
  return received_[slot * consumers_ + consumer] != 0;
}

Kw HeadEnd::reading(std::size_t consumer, SlotIndex slot) const {
  require(has_reading(consumer, slot), "HeadEnd::reading: missing reading");
  return values_[slot * consumers_ + consumer];
}

std::vector<Kw> HeadEnd::consumer_readings(std::size_t consumer) const {
  require(consumer < consumers_,
          "HeadEnd::consumer_readings: out of range");
  std::vector<Kw> out(slots_);
  for (std::size_t t = 0; t < slots_; ++t) {
    out[t] = values_[t * consumers_ + consumer];
  }
  return out;
}

std::vector<Kw> HeadEnd::consumer_readings(
    std::size_t consumer, std::vector<char>& missing_mask) const {
  std::vector<Kw> out = consumer_readings(consumer);
  missing_mask.assign(slots_, 0);
  for (std::size_t t = 0; t < slots_; ++t) {
    if (!received_[t * consumers_ + consumer]) missing_mask[t] = 1;
  }
  return out;
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
  require(policy.max_retries == 0 || policy.backoff_base_slots > 0,
          "MeterNetwork::set_retransmit: backoff base must be positive");
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
