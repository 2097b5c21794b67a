#include "spnhbm/sim/process.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "spnhbm/util/error.hpp"

namespace spnhbm::sim {
namespace {

Process counting_process(Scheduler& scheduler, std::vector<Picoseconds>& times,
                         int steps, Picoseconds dt) {
  for (int i = 0; i < steps; ++i) {
    co_await delay(scheduler, dt);
    times.push_back(scheduler.now());
  }
}

TEST(Process, AdvancesVirtualTime) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  std::vector<Picoseconds> times;
  runner.spawn(counting_process(scheduler, times, 3, 100));
  scheduler.run();
  runner.check();
  EXPECT_EQ(times, (std::vector<Picoseconds>{100, 200, 300}));
  EXPECT_TRUE(runner.all_done());
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  std::vector<Picoseconds> a_times, b_times;
  runner.spawn(counting_process(scheduler, a_times, 4, 100));
  runner.spawn(counting_process(scheduler, b_times, 2, 250));
  scheduler.run();
  runner.check();
  EXPECT_EQ(a_times, (std::vector<Picoseconds>{100, 200, 300, 400}));
  EXPECT_EQ(b_times, (std::vector<Picoseconds>{250, 500}));
}

Process joiner(Scheduler& scheduler, ProcessRunner& runner,
               std::vector<int>& log) {
  std::vector<Picoseconds> ignored;
  Process child = runner.spawn(counting_process(scheduler, ignored, 1, 500));
  log.push_back(1);
  co_await child.join();
  log.push_back(2);
  EXPECT_EQ(scheduler.now(), 500);
}

TEST(Process, JoinWaitsForChild) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  std::vector<int> log;
  runner.spawn(joiner(scheduler, runner, log));
  scheduler.run();
  runner.check();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

Process throwing_process(Scheduler& scheduler) {
  co_await delay(scheduler, 10);
  throw Error("simulated failure");
}

TEST(Process, ExceptionSurfacesViaCheck) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  runner.spawn(throwing_process(scheduler));
  scheduler.run();
  EXPECT_THROW(runner.check(), Error);
  // A second check must not rethrow the consumed exception.
  EXPECT_NO_THROW(runner.check());
}

Process join_rethrows(Scheduler& scheduler, ProcessRunner& runner, bool& caught) {
  Process child = runner.spawn(throwing_process(scheduler));
  try {
    co_await child.join();
  } catch (const Error&) {
    caught = true;
  }
}

TEST(Process, JoinRethrowsChildException) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  bool caught = false;
  runner.spawn(join_rethrows(scheduler, runner, caught));
  scheduler.run();
  runner.check();  // exception was consumed by the join
  EXPECT_TRUE(caught);
}

Process immediate() { co_return; }

TEST(Process, JoinOnFinishedProcessIsReady) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  Process p = runner.spawn(immediate());
  scheduler.run();
  EXPECT_TRUE(p.done());
  EXPECT_FALSE(p.failed());
}

TEST(Process, ZeroDelayYieldsThroughQueue) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  std::vector<int> order;
  auto maker = [&](int id) -> Process {
    co_await delay(scheduler, 0);
    order.push_back(id);
    co_await delay(scheduler, 0);
    order.push_back(id + 10);
  };
  runner.spawn(maker(1));
  runner.spawn(maker(2));
  scheduler.run();
  runner.check();
  // Round-robin interleaving, still at time zero.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12}));
  EXPECT_EQ(scheduler.now(), 0);
}

TEST(Process, RunnerStateStaysBoundedOverManyCycles) {
  // One runner per engine lives as long as the engine and spawns
  // processes for every batch: finished, clean states must not pile up.
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  std::vector<Picoseconds> ignored;
  std::size_t most_tracked = 0;
  for (int cycle = 0; cycle < 10'000; ++cycle) {
    runner.spawn(counting_process(scheduler, ignored, 1, 1));
    scheduler.run();
    runner.check();
    most_tracked = std::max(most_tracked, runner.tracked());
  }
  EXPECT_LE(most_tracked, 64u);
  EXPECT_TRUE(runner.all_done());
  EXPECT_EQ(ignored.size(), 10'000u);
}

TEST(Process, FailedProcessSurvivesPruningUntilChecked) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  runner.spawn(throwing_process(scheduler));
  scheduler.run();
  // Enough clean spawns to trigger several prunes before the check.
  std::vector<Picoseconds> ignored;
  for (int i = 0; i < 1'000; ++i) {
    runner.spawn(counting_process(scheduler, ignored, 1, 1));
    scheduler.run();
  }
  EXPECT_THROW(runner.check(), Error);
  EXPECT_NO_THROW(runner.check());
  // Consumed now: the next prune drops it with the clean states.
  for (int i = 0; i < 200; ++i) {
    runner.spawn(counting_process(scheduler, ignored, 1, 1));
    scheduler.run();
  }
  EXPECT_LE(runner.tracked(), 64u);
}

TEST(Process, AllDoneSeesLiveProcessesAfterPruning) {
  Scheduler scheduler;
  ProcessRunner runner(scheduler);
  std::vector<Picoseconds> ignored;
  for (int i = 0; i < 200; ++i) {
    runner.spawn(counting_process(scheduler, ignored, 1, 1));
  }
  runner.spawn(counting_process(scheduler, ignored, 1, 1'000));
  scheduler.run_until(500);
  runner.check();
  EXPECT_FALSE(runner.all_done());
  scheduler.run();
  EXPECT_TRUE(runner.all_done());
}

}  // namespace
}  // namespace spnhbm::sim
