#include "common/sharding.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace fdeta {

ShardLayer::ShardLayer(std::size_t requested, std::size_t consumers,
                       std::size_t parallel_hint,
                       obs::MetricsRegistry& registry, const char* component)
    : count_(resolve_shard_count(requested, consumers, parallel_hint)),
      consumers_(consumers),
      locks_(std::make_unique<std::mutex[]>(count_)),
      applied_(std::make_unique<std::atomic<std::uint64_t>[]>(count_)) {
  const auto name = [component](std::size_t s, const char* what) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s.shard%02zu.%s", component, s, what);
    return std::string(buf);
  };
  // A fixed cardinality budget: never per-shard names without bound.
  constexpr std::size_t kMaxShardSeries = 64;
  for (std::size_t s = 0; s < std::min(count_, kMaxShardSeries); ++s) {
    series_.push_back({&registry.gauge(name(s, "pending_depth")),
                       &registry.gauge(name(s, "pending_highwater")),
                       &registry.histogram(name(s, "lock_wait_seconds"))});
  }
  imbalance_ =
      &registry.gauge(std::string(component) + ".shard_imbalance_milli");
}

void ShardLayer::apply_by_shard(
    std::span<const std::size_t> shard,
    const std::function<void(std::span<const std::size_t>)>& apply,
    std::size_t threads) {
  // Stable counting sort into one position array: shard s's positions are
  // order[bounds[s] .. bounds[s + 1]), in batch order.
  std::vector<std::size_t> bounds(count_ + 1, 0);
  for (const std::size_t s : shard) ++bounds[s + 1];
  for (std::size_t s = 0; s < count_; ++s) bounds[s + 1] += bounds[s];
  std::vector<std::size_t> order(shard.size());
  {
    std::vector<std::size_t> next(bounds.begin(), bounds.end() - 1);
    for (std::size_t p = 0; p < shard.size(); ++p) order[next[shard[p]]++] = p;
  }

  parallel_for(
      count_,
      [&](std::size_t s) {
        const std::size_t depth = bounds[s + 1] - bounds[s];
        if (depth == 0) return;
        // The lock-wait histogram times only the acquisition (contention,
        // not work); the depth gauges cover the positions this batch parked
        // on the shard.  Constant work per shard per batch.
        const Series& series = series_[s % series_.size()];
        series.pending->set(static_cast<std::int64_t>(depth));
        series.highwater->update_max(static_cast<std::int64_t>(depth));
        obs::ScopedTimer wait(*series.lock_wait);
        std::lock_guard<std::mutex> lock(locks_[s]);
        wait.stop();
        apply(std::span<const std::size_t>(order).subspan(bounds[s], depth));
        applied_[s].fetch_add(depth, std::memory_order_relaxed);
        series.pending->set(0);
      },
      threads);

  std::uint64_t total = 0;
  std::uint64_t max_load = 0;
  for (std::size_t s = 0; s < count_; ++s) {
    const std::uint64_t n = applied_[s].load(std::memory_order_relaxed);
    total += n;
    max_load = std::max(max_load, n);
  }
  if (total > 0) {
    const double mean =
        static_cast<double>(total) / static_cast<double>(count_);
    imbalance_->set(
        std::llround(1000.0 * static_cast<double>(max_load) / mean));
  }
}

}  // namespace fdeta
