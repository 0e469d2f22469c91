// Contiguous consumer -> shard ranges and the one shard layer of the fleet
// hot path.
//
// HeadEnd and OnlineMonitor split their per-consumer state into N
// independent shards so concurrent ingest feeds never contend on one
// mutex (DESIGN.md §12: per-shard locking, not per-structure).  The mapping
// must be a pure function of the consumer index - never of shard load,
// insertion order, or thread schedule - so that any (shard count x thread
// count) combination touches the same per-consumer state in the same
// per-consumer order and the determinism guarantees of the event log
// survive sharding.  Both owners hold one ShardLayer: the shard count, the
// locks, the per-shard health series and the batch path live here once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace fdeta {

namespace obs {
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs

/// Resolves a configured shard count: 0 = auto (4x the parallelism hint,
/// capped at 64 - enough for the pool to even out uneven shards, few
/// enough that per-shard scratch buffers stay cache-resident), and never
/// more shards than consumers (a shard with no consumers is pure waste).
inline std::size_t resolve_shard_count(std::size_t requested,
                                       std::size_t consumers,
                                       std::size_t parallel_hint) {
  std::size_t shards = requested;
  if (shards == 0) {
    const std::size_t hint = parallel_hint == 0 ? 1 : parallel_hint;
    shards = hint * 4;
    if (shards > 64) shards = 64;
  }
  if (consumers > 0 && shards > consumers) shards = consumers;
  if (shards == 0) shards = 1;
  return shards;
}

/// A component's shard layer: shard_of(c) owns consumer c's state, behind
/// that shard's lock.  Shards are contiguous, balanced ranges of consumer
/// indexes: with n consumers and k shards, consumer c belongs to shard
/// floor(c * k / n), so each shard holds floor(n/k) or ceil(n/k)
/// neighbouring consumers.  Ranges rather than a hash because the owners
/// pack several consumers into each 64 B line of their per-consumer
/// arrays: under ranges a line is written by two shards only where it
/// straddles a boundary (at most k - 1 lines per array), so pool threads
/// do not write each other's lines.  Ranges are also the first step
/// towards the feeder-subtree sharding DESIGN.md §14 anticipates, where one
/// shard's consumers sit under one feeder.
///
/// The layer keeps the component's per-shard health series
/// ("<component>.shardNN.{pending_depth,pending_highwater,
/// lock_wait_seconds}"; at most 64 of each, wider layers alias shard s onto
/// s % 64) and its "<component>.shard_imbalance_milli" gauge (max over mean
/// cumulative per-shard load, x1000).  lock_of() and apply_batch() are safe
/// from concurrent feeds; the load counts are relaxed atomics.
class ShardLayer {
 public:
  /// Unsized (an owner before fit): count() is 1, nothing else is usable.
  ShardLayer() = default;
  ShardLayer(std::size_t requested, std::size_t consumers,
             std::size_t parallel_hint, obs::MetricsRegistry& registry,
             const char* component);

  std::size_t count() const { return count_; }

  /// Shard owning `consumer` (< the consumer count the layer was built
  /// for).  The product is taken in 128 bits, so it is exact for any
  /// count <= consumers that resolve_shard_count allows.
  std::size_t shard_of(std::size_t consumer) const {
    return static_cast<std::size_t>(static_cast<unsigned __int128>(consumer) *
                                    count_ / consumers_);
  }

  std::mutex& lock_of(std::size_t consumer) {
    return locks_[shard_of(consumer)];
  }

  /// Applies a batch shard by shard.  One stable counting sort groups the
  /// positions of `items` by the shard of their consumer_index, so one
  /// consumer's items keep batch order; then `apply(positions)` runs under
  /// each non-empty shard's lock, on the shared pool with at most `threads`
  /// shards at once (0 = full width, 1 = in shard order on the calling
  /// thread).  Sets the depth gauges and times each lock wait, then updates
  /// the imbalance gauge.
  template <class Item>
  void apply_batch(
      std::span<const Item> items,
      const std::function<void(std::span<const std::size_t>)>& apply,
      std::size_t threads) {
    std::vector<std::size_t> shard(items.size());
    for (std::size_t p = 0; p < items.size(); ++p) {
      shard[p] = shard_of(items[p].consumer_index);
    }
    apply_by_shard(shard, apply, threads);
  }

 private:
  void apply_by_shard(
      std::span<const std::size_t> shard,
      const std::function<void(std::span<const std::size_t>)>& apply,
      std::size_t threads);

  struct Series {
    obs::Gauge* pending;
    obs::Gauge* highwater;
    obs::Histogram* lock_wait;
  };

  std::size_t count_ = 1;
  std::size_t consumers_ = 1;
  std::unique_ptr<std::mutex[]> locks_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> applied_;  ///< per shard
  std::vector<Series> series_;
  obs::Gauge* imbalance_ = nullptr;
};

}  // namespace fdeta
