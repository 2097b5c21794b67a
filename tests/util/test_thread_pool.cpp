#include "spnhbm/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace spnhbm {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> touched(1000, 0);
  pool.parallel_for(touched.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) touched[i] += 1;
  });
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 1000);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForFinishesEveryChunkBeforeRethrowing) {
  // Chunks borrow the caller's function: a failing first chunk must not
  // let parallel_for return while later chunks still run.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  const std::size_t n = 64;  // 8 chunks of 8 on two workers
  EXPECT_THROW(pool.parallel_for(n,
                                 [&](std::size_t begin, std::size_t) {
                                   if (begin == 0) {
                                     throw std::runtime_error("first");
                                   }
                                   ++finished;
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 7);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::logic_error);
}

}  // namespace
}  // namespace spnhbm
