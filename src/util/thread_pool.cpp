#include "spnhbm/util/thread_pool.hpp"

#include <algorithm>

#include "spnhbm/util/error.hpp"

namespace spnhbm {

ThreadPool::ThreadPool(std::size_t worker_count) {
  SPNHBM_REQUIRE(worker_count > 0, "thread pool needs at least one worker");
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    SPNHBM_REQUIRE(!stopping_, "submit on stopping pool");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, worker_count() * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t begin = 0; begin < n; begin += chunk_size) {
    const std::size_t end = std::min(begin + chunk_size, n);
    futures.push_back(submit([&fn, begin, end] { fn(begin, end); }));
  }
  // Every chunk borrows `fn`: wait for all of them before rethrowing.
  for (auto& future : futures) future.wait();
  for (auto& future : futures) future.get();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace spnhbm
