#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/env.h"

namespace fdeta {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ThreadCountHonoured) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, [&](std::size_t i) { visits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleIterationRunsInline) {
  int value = 0;
  parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 41; });
  EXPECT_EQ(value, 41);
}

TEST(ParallelFor, ResultsMatchSerialComputation) {
  const std::size_t n = 500;
  std::vector<double> out(n, 0.0);
  parallel_for(n, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * static_cast<double>(i);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * static_cast<double>(i));
  }
}

TEST(ParallelFor, MoreThreadsThanWorkIsSafe) {
  std::vector<std::atomic<int>> visits(3);
  parallel_for(3, [&](std::size_t i) { visits[i].fetch_add(1); }, 64);
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, ChunkedSchedulingVisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1003;  // not a multiple of the grain
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, [&](std::size_t i) { visits[i].fetch_add(1); },
               /*threads=*/8, /*grain=*/64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, BodyExceptionRethrownOnCaller) {
  // Before the shared-pool rewrite this called std::terminate.
  EXPECT_THROW(
      parallel_for(256,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   },
                   8),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionAbandonsUnclaimedIterations) {
  std::atomic<std::size_t> executed{0};
  try {
    parallel_for(
        100'000,
        [&](std::size_t) {
          executed.fetch_add(1);
          throw std::runtime_error("first iteration fails");
        },
        4);
    FAIL() << "expected the body's exception to propagate";
  } catch (const std::runtime_error&) {
  }
  // At most one in-flight chunk per participant runs to completion after the
  // cancel flag is raised; the bulk of the range must be skipped.
  EXPECT_LT(executed.load(), 100'000u);
}

TEST(ParallelFor, PoolStaysUsableAfterException) {
  EXPECT_THROW(
      parallel_for(64, [](std::size_t) { throw std::runtime_error("x"); }, 4),
      std::runtime_error);
  std::atomic<std::size_t> sum{0};
  parallel_for(64, [&](std::size_t i) { sum.fetch_add(i); }, 4);
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(ParallelFor, NestedCallsComplete) {
  // Inner parallel_for runs from pool workers; the caller-participates
  // design must not deadlock even when the pool is saturated.
  std::vector<std::atomic<int>> visits(64 * 16);
  parallel_for(64, [&](std::size_t outer) {
    parallel_for(16, [&](std::size_t inner) {
      visits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  // The error was collected; the pool remains usable.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SubmitTaskDeliversValueThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit_task([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitTaskDeliversExceptionThroughFutureOnly) {
  ThreadPool pool(2);
  auto future = pool.submit_task([]() -> int { throw std::runtime_error("f"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  pool.wait_idle();  // must NOT rethrow: the future owned the error
}

TEST(SharedPool, IsASingleLiveInstance) {
  ThreadPool& a = shared_pool();
  ThreadPool& b = shared_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
  std::atomic<int> counter{0};
  a.submit([&counter] { counter.fetch_add(1); });
  a.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

// Unpinned, a default-width parallel_for runs one thread per core: the
// shared pool's workers plus the calling thread, never nproc + 1.
TEST(SharedPool, DefaultWidthIsOneThreadPerCore) {
  if (env_size("FDETA_THREADS", 0) != 0) {
    GTEST_SKIP() << "FDETA_THREADS pins the shared pool's width";
  }
  const std::size_t cores = std::thread::hardware_concurrency();
  EXPECT_EQ(parallel_width(0), std::max<std::size_t>(2, cores));
}

}  // namespace
}  // namespace fdeta
