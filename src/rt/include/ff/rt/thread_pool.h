#pragma once

// Fixed-size worker pool. ff::sweep runs independent experiments
// (controller variants, gain grids, parameter sweeps) on it across cores
// -- each experiment owns its own Simulator, so runs share nothing.
//
// Tasks travel as sim::InlineTask, which accepts move-only callables, so
// submit() wraps the work in a packaged_task directly instead of the
// shared_ptr<packaged_task> detour a copyable std::function would force.

#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "ff/sim/inline_task.h"
#include "ff/util/mpmc_queue.h"

namespace ff::rt {

class ThreadPool {
 public:
  /// `threads` = 0 uses hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves with its result (or exception).
  template <class F>
  [[nodiscard]] auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> task(std::forward<F>(f));
    std::future<R> future = task.get_future();
    queue_.push(sim::InlineTask(std::move(task)));
    return future;
  }

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  // Thread-safety: queue_ is internally synchronized (the pool's only
  // cross-thread channel); workers_ is written by the constructor before
  // any worker can observe `this` and joined by the destructor, so it
  // needs no guard -- there is no mutex-level capability in this class.
  MpmcQueue<sim::InlineTask> queue_;
  std::vector<std::thread> workers_;
};

/// Process-wide shared pool (hardware_concurrency workers), created on
/// first use and recreated on the next use after a shutdown. Lets call
/// sites that fan out repeatedly -- benches sweeping a grid in a loop --
/// reuse one set of threads instead of paying pool construction per sweep.
[[nodiscard]] ThreadPool& default_pool();

/// Joins and destroys the shared pool (no-op when it was never created).
/// For entry points and embedders that must not leak worker threads past
/// main()/dlclose; the pool comes back on the next default_pool() call.
/// Outstanding futures must be collected first -- pending tasks still run
/// during the join, but nothing may submit concurrently with shutdown.
void shutdown_default_pool();

}  // namespace ff::rt
