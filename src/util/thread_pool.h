// Fixed-size thread pool with a blocking task queue and a parallel_for
// helper. Used by the experiment runner to fan seeded simulation runs across
// cores; all experiment code derives per-task RNG substreams so results are
// identical regardless of thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/check.h"

namespace mmr {

class ThreadPool {
 public:
  /// Largest worker count a --threads flag may ask for; the flag readers
  /// reject more before any pool is built.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      MMR_CHECK_MSG(!stopping_, "submit() on a stopped ThreadPool");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n), blocking until all complete. Exceptions
  /// from tasks propagate (the first one encountered is rethrown).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace mmr
