// Fixed-size thread pool used by the native CPU inference baseline.
//
// Deliberately simple: a single mutex-protected deque is more than fast
// enough for the coarse-grained batch chunks the baseline submits, and keeps
// the implementation obviously correct (Core Guidelines CP.20-CP.25: RAII
// locks, no detached threads, join on destruction).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace spnhbm {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t worker_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues a task; the returned future resolves when it completes.
  std::future<void> submit(std::function<void()> task);

  /// Runs `fn(chunk_begin, chunk_end)` over [0, n) split across the pool and
  /// blocks until every chunk is done. The first failing chunk's
  /// exception (in index order) propagates once all chunks have finished.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace spnhbm
