// Span tracer tests: the disabled path must be allocation-free, the enabled
// path must capture instrumented spans from every layer, and the bounded
// ring must drop oldest-first instead of growing.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "core/evidence.h"
#include "core/online_monitor.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "obs/metrics.h"

// Global operator new/delete overrides count every heap allocation in this
// test binary, so the disabled-span test can assert an exact zero.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC flags free() here as mismatched with the (likewise replaced,
// malloc-backed) operator new when it inlines std::allocator calls; the
// pairing is in fact consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms must be replaced too: stable_sort's temporary buffer
// allocates through them, and mixing a default nothrow-new with the
// replaced delete trips ASan's alloc-dealloc-mismatch check.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace fdeta::obs {
namespace {

// Declared first so it runs before anything in this binary touches the
// shared pool (a concurrently allocating worker would fog the count).
TEST(Trace, DisabledSpanMakesZeroAllocations) {
  ASSERT_FALSE(trace_enabled());
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("trace.test", "test");
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(Trace, DisabledRecordsNothing) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  tracer.disable();
  { TraceSpan span("trace.after_disable", "test"); }
  for (const auto& e : tracer.collect()) {
    EXPECT_STRNE(e.name, "trace.after_disable");
  }
}

TEST(Trace, CollectsNamedSpansInChronologicalOrder) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  { TraceSpan span("trace.first", "test"); }
  { TraceSpan span("trace.second", "test"); }
  tracer.disable();

  const auto events = tracer.collect();
  ASSERT_GE(events.size(), 2u);
  std::vector<std::string> names;
  for (const auto& e : events) names.emplace_back(e.name);
  const auto first = std::find(names.begin(), names.end(), "trace.first");
  const auto second = std::find(names.begin(), names.end(), "trace.second");
  ASSERT_NE(first, names.end());
  ASSERT_NE(second, names.end());
  EXPECT_LT(first - names.begin(), second - names.begin());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
  }
}

TEST(Trace, RingDropsOldestWhenFull) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(/*ring_capacity=*/8);
  // More spans than ring + thread buffer absorb: force overwrites.  The
  // thread buffer holds 4096 before draining, so exceed that plus the ring.
  for (int i = 0; i < 5000; ++i) {
    TraceSpan span("trace.flood", "test");
  }
  tracer.disable();
  const auto events = tracer.collect();
  EXPECT_LE(events.size(), 8u);
  EXPECT_GT(tracer.dropped(), 0u);
}

TEST(Trace, ReenableClearsPreviousWindow) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  { TraceSpan span("trace.stale", "test"); }
  tracer.enable();  // new window: stale spans must not survive
  { TraceSpan span("trace.fresh", "test"); }
  tracer.disable();

  bool saw_fresh = false;
  for (const auto& e : tracer.collect()) {
    EXPECT_STRNE(e.name, "trace.stale");
    if (std::string(e.name) == "trace.fresh") saw_fresh = true;
  }
  EXPECT_TRUE(saw_fresh);
}

TEST(Trace, ChromeJsonShapeAndCounts) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  { TraceSpan span("trace.json", "test"); }
  tracer.disable();

  const std::string json = tracer.chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"trace.json\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":\"0\""), std::string::npos);
}

TEST(Trace, PoolWorkersGetDistinctThreadIds) {
  // The participating caller can drain 64 trivial tasks before a worker
  // wakes, so the first task to start holds its thread on a latch until a
  // second thread has entered the loop.  The wait is bounded, and skipped
  // on single-core hosts, which legally run every task on one thread.
  const bool multi_core = std::thread::hardware_concurrency() > 1;
  std::mutex mutex;
  std::condition_variable entered;
  std::set<std::thread::id> threads;
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  parallel_for(64, [&](std::size_t) {
    TraceSpan span("trace.parallel", "test");
    std::unique_lock lock(mutex);
    const bool first = threads.empty();
    threads.insert(std::this_thread::get_id());
    entered.notify_all();
    if (first && multi_core) {
      entered.wait_for(lock, std::chrono::seconds(10),
                       [&] { return threads.size() >= 2; });
    }
  });
  tracer.disable();

  std::set<std::uint32_t> tids;
  for (const auto& e : tracer.collect()) {
    if (std::string(e.name) == "trace.parallel") tids.insert(e.tid);
  }
  EXPECT_GE(tids.size(), multi_core ? 2u : 1u);
}

TEST(Trace, PipelineMonitorAndPoolSpansAppear) {
  const auto dataset = datagen::small_dataset(3, 16, 42);
  MetricsRegistry registry;
  core::PipelineConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 12, .test_weeks = 4};
  config.metrics = &registry;
  core::FdetaPipeline pipeline(config);

  core::OnlineMonitorConfig mconfig;
  mconfig.metrics = &registry;
  core::OnlineMonitor monitor(mconfig);

  Tracer& tracer = Tracer::instance();
  tracer.enable();
  pipeline.fit(dataset);
  pipeline.evaluate_week(dataset, dataset, 12, core::EvidenceCalendar{});
  monitor.fit(dataset, config.split);
  monitor.ingest(0, 12 * kSlotsPerWeek, 1.0);
  // parallel_for lets the caller steal every chunk of a tiny range, so force
  // a worker-executed task deterministically: submit() never runs inline.
  shared_pool().submit([] {});
  shared_pool().wait_idle();
  tracer.disable();

  std::set<std::string> names;
  for (const auto& e : tracer.collect()) names.insert(e.name);
  EXPECT_TRUE(names.contains("pipeline.fit"));
  EXPECT_TRUE(names.contains("pipeline.evaluate_week"));
  EXPECT_TRUE(names.contains("monitor.fit"));
  EXPECT_TRUE(names.contains("monitor.ingest"));
  EXPECT_TRUE(names.contains("pool.task"));
}

}  // namespace
}  // namespace fdeta::obs
