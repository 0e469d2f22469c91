// A fixed-size worker pool with a parallel-for helper and a process-wide
// shared instance.
//
// The paper's evaluation ran "74 CPU cores for a total period of 4 weeks"
// (Section VIII-B); our evaluation harness runs the same
// consumer x attack-vector x detector sweep, parallelised per consumer.
// The fleet path (FdetaPipeline / OnlineMonitor) runs on the shared pool so
// that repeated calls (weekly sweeps, streaming batches, bench loops) do not
// pay thread-spawn cost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace fdeta {

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

/// Work-queue thread pool.  Tasks are std::function<void()>.  An exception
/// escaping a task is captured (the first one wins) and rethrown to the
/// caller of wait_idle(); it does not terminate the process.  For per-task
/// error handling use submit_task(), whose future carries the task's own
/// exception instead.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means one fewer than the hardware threads
  /// (at least one), so the workers plus a calling thread fill the cores.
  /// Pool load telemetry (pool.tasks_submitted / pool.tasks_completed /
  /// pool.queue_depth_highwater) is reported to `metrics`, or to
  /// obs::default_registry() when null.
  explicit ThreadPool(std::size_t threads = 0,
                      obs::MetricsRegistry* metrics = nullptr);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks and joins all workers.  A pending captured
  /// exception that was never collected by wait_idle() is discarded.
  ~ThreadPool();

  /// Enqueues a fire-and-forget task.  If it throws, the first such
  /// exception is rethrown by the next wait_idle().
  void submit(std::function<void()> task);

  /// Futures-style submission: enqueues `f` and returns a future for its
  /// result.  Exceptions thrown by `f` surface through the future (not
  /// through wait_idle()).
  template <typename F>
  auto submit_task(F f) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> future = task->get_future();
    submit([task] { (*task)(); });  // packaged_task never lets escape
    return future;
  }

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception captured from a fire-and-forget task (if any),
  /// clearing it so the pool stays usable.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;  // from fire-and-forget tasks

  // Cached at construction; updates are lock-free (see obs/metrics.h).
  obs::Counter* tasks_submitted_ = nullptr;
  obs::Counter* tasks_completed_ = nullptr;
  obs::Gauge* queue_highwater_ = nullptr;
};

/// The lazily-initialized process-wide pool (FDETA_THREADS workers, or
/// ThreadPool's default of one per core but the caller's).
/// All parallel_for calls and the fleet path share it, so tight bench loops
/// stop paying per-call thread-spawn cost.
ThreadPool& shared_pool();

/// The parallelism parallel_for runs at for a `threads` cap: the cap
/// itself, or for 0 the shared pool's width plus the calling thread.
std::size_t parallel_width(std::size_t threads);

/// Runs `body(i)` for i in [0, count) on the shared pool (or inline for tiny
/// ranges).  Blocks until all iterations complete; the calling thread
/// participates in the work, so nested calls cannot deadlock the pool.
///
/// `threads` caps the parallelism (0 = pool width + the caller).  `grain`
/// batches consecutive indices per scheduling step: leave it at 1 for
/// expensive uneven iterations (per-consumer ARIMA fits), raise it for cheap
/// ones (per-consumer KLD scoring) to amortise the work-counter contention.
///
/// If `body` throws, remaining unclaimed iterations are abandoned and the
/// first exception is rethrown on the calling thread once in-flight
/// iterations have drained.  `body` must be safe to invoke concurrently for
/// distinct indices.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0, std::size_t grain = 1);

}  // namespace fdeta
