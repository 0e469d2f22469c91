#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fdeta {

ThreadPool::ThreadPool(std::size_t threads, obs::MetricsRegistry* metrics) {
  if (threads == 0) {
    const std::size_t cores = std::thread::hardware_concurrency();
    threads = cores > 1 ? cores - 1 : 1;
  }
  // Resolve the metric handles before any worker exists so the workers only
  // ever touch initialized pointers.  (default_registry() outlives the
  // shared pool: it is constructed here, before the pool's static finishes.)
  obs::MetricsRegistry& registry =
      metrics != nullptr ? *metrics : obs::default_registry();
  tasks_submitted_ = &registry.counter("pool.tasks_submitted");
  tasks_completed_ = &registry.counter("pool.tasks_completed");
  queue_highwater_ = &registry.gauge("pool.queue_depth_highwater");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    queue_highwater_->update_max(static_cast<std::int64_t>(queue_.size()));
  }
  tasks_submitted_->add();
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      obs::TraceSpan span("pool.task", "pool");
      task();
    } catch (...) {
      error = std::current_exception();
    }
    tasks_completed_->add();
    {
      std::lock_guard lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

ThreadPool& shared_pool() {
  // FDETA_THREADS pins the shared pool's width for the whole process
  // (0/unset = one worker per core but the caller's).  The chaos lane runs
  // the same seeded scenario under FDETA_THREADS=1 and the default width
  // and requires byte-identical event logs.
  static ThreadPool pool(env_size("FDETA_THREADS", 0));
  return pool;
}

namespace {

/// Shared bookkeeping for one parallel_for call.  Helpers submitted to the
/// pool hold it by shared_ptr, so a helper scheduled after the call has
/// already returned finds no claimable work and exits without touching the
/// (by then dead) body.
struct ParallelForState {
  ParallelForState(std::size_t count, std::size_t grain,
                   const std::function<void(std::size_t)>& body)
      : count(count), grain(grain),
        chunks((count + grain - 1) / grain), body(&body) {}

  const std::size_t count;
  const std::size_t grain;
  const std::size_t chunks;
  const std::function<void(std::size_t)>* body;

  std::atomic<std::size_t> next{0};     // next unclaimed chunk
  std::atomic<bool> cancelled{false};   // set on first exception

  std::mutex mutex;
  std::condition_variable drained;
  std::size_t active = 0;  // participants currently inside run()
  std::exception_ptr error;

  void run() {
    {
      std::lock_guard lock(mutex);
      ++active;
    }
    for (;;) {
      if (cancelled.load(std::memory_order_relaxed)) break;
      const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) break;
      const std::size_t begin = chunk * grain;
      const std::size_t end = std::min(begin + grain, count);
      try {
        for (std::size_t i = begin; i < end; ++i) (*body)(i);
      } catch (...) {
        std::lock_guard lock(mutex);
        if (!error) error = std::current_exception();
        cancelled.store(true, std::memory_order_relaxed);
      }
    }
    {
      std::lock_guard lock(mutex);
      if (--active == 0) drained.notify_all();
    }
  }
};

}  // namespace

std::size_t parallel_width(std::size_t threads) {
  return threads != 0 ? threads : shared_pool().thread_count() + 1;
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads, std::size_t grain) {
  if (count == 0) return;
  grain = std::max<std::size_t>(1, grain);

  ThreadPool& pool = shared_pool();
  const std::size_t chunks = (count + grain - 1) / grain;
  const std::size_t workers = std::min(parallel_width(threads), chunks);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);  // exceptions propagate
    return;
  }

  auto state = std::make_shared<ParallelForState>(count, grain, body);
  // The caller is one participant; the rest are pool helpers.  The caller
  // works too, so even a fully congested pool (e.g. a nested parallel_for
  // from inside a pool task) makes progress and completes.
  for (std::size_t w = 1; w < workers; ++w) {
    pool.submit([state] { state->run(); });
  }
  state->run();

  // After the caller's own run() the work is fully claimed (or cancelled);
  // wait only for helpers still executing claimed chunks.  Helpers that the
  // pool schedules later find nothing to claim and exit via `state` alone,
  // so the error moves out of `state`: the exception is then released on
  // this thread, never by a late helper dropping the last `state`.
  std::exception_ptr error;
  {
    std::unique_lock lock(state->mutex);
    state->drained.wait(lock, [&] { return state->active == 0; });
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fdeta
