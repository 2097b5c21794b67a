// Coroutine process type for the DES scheduler.
//
// A `Process` is a fire-and-forget coroutine that models one hardware unit
// or host thread. It is created suspended and started by
// `Scheduler::spawn`, which enqueues its first resumption at the current
// virtual time — so process start order is deterministic, too.
//
// Lifetime: the coroutine frame destroys itself at final suspension; the
// `Process` handle only holds a shared completion state (done flag, stored
// exception, waiter list), so dropping the handle is always safe.
#pragma once

#include <algorithm>
#include <coroutine>
#include <exception>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "spnhbm/sim/scheduler.hpp"

namespace spnhbm::sim {

class Process {
 public:
  struct State {
    bool done = false;
    std::exception_ptr exception;
    bool exception_consumed = false;
    Scheduler* scheduler = nullptr;
    std::vector<std::coroutine_handle<>> waiters;
    /// Keeps a spawning closure alive for the lifetime of the process
    /// (lambda coroutines access their captures through the closure
    /// object, which must therefore outlive the coroutine frame).
    std::shared_ptr<void> keep_alive;
  };

  struct promise_type {
    std::shared_ptr<State> state = std::make_shared<State>();

    Process get_return_object() {
      return Process(state,
                     std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<promise_type> handle) noexcept {
        auto& state = *handle.promise().state;
        state.done = true;
        if (state.scheduler != nullptr) {
          for (auto waiter : state.waiters) {
            state.scheduler->schedule_at(state.scheduler->now(), waiter);
          }
        }
        state.waiters.clear();
        return false;  // do not suspend: the frame is destroyed right here
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { state->exception = std::current_exception(); }
  };

  Process() = default;

  bool done() const { return !state_ || state_->done; }
  bool failed() const { return state_ && state_->exception != nullptr; }

  /// Rethrows the process' stored exception, if any (marks it consumed).
  void rethrow_if_failed() const {
    if (state_ && state_->exception) {
      state_->exception_consumed = true;
      std::rethrow_exception(state_->exception);
    }
  }

  /// Awaitable that resumes the awaiting process once this one finishes;
  /// rethrows this process' exception into the awaiter.
  struct JoinAwaitable {
    std::shared_ptr<State> state;
    bool await_ready() const noexcept { return state->done; }
    void await_suspend(std::coroutine_handle<> handle) const {
      state->waiters.push_back(handle);
    }
    void await_resume() const {
      if (state->exception) {
        state->exception_consumed = true;
        std::rethrow_exception(state->exception);
      }
    }
  };
  JoinAwaitable join() const {
    SPNHBM_REQUIRE(state_ != nullptr, "join on empty process");
    return JoinAwaitable{state_};
  }

 private:
  friend class ProcessRunner;
  Process(std::shared_ptr<State> state, std::coroutine_handle<> handle)
      : state_(std::move(state)), handle_(handle) {}

  std::shared_ptr<State> state_;
  std::coroutine_handle<> handle_;
};

/// Starts processes on a scheduler and tracks their completion states so a
/// process that dies with an unjoined exception cannot fail silently:
/// `check()` (called by the simulation drivers after `run()`) rethrows the
/// first unconsumed exception. States of finished processes that hold no
/// unconsumed exception are dropped whenever the list has doubled, so a
/// long-lived runner (one per engine, spawning processes for every batch)
/// holds a bounded list instead of every process it ever spawned.
class ProcessRunner {
 public:
  explicit ProcessRunner(Scheduler& scheduler) : scheduler_(scheduler) {}

  /// Enqueues the process' first step at the current virtual time.
  ///
  /// CAUTION: when spawning a *lambda* coroutine, do not invoke a temporary
  /// closure (`runner.spawn([&]{...}())` dangles its captures) — either
  /// keep the closure alive yourself or use the factory overload below.
  Process spawn(Process process) {
    SPNHBM_REQUIRE(process.state_ != nullptr, "spawn of empty process");
    process.state_->scheduler = &scheduler_;
    scheduler_.schedule_at(scheduler_.now(), process.handle_);
    // Prune when the list doubles: amortised O(1) per spawn.
    if (states_.size() >= prune_at_) {
      prune();
      prune_at_ = std::max(kMinPruneAt, 2 * states_.size());
    }
    states_.push_back(process.state_);
    return process;
  }

  /// Spawns the process produced by `factory()` and keeps the factory
  /// closure alive for the process' whole lifetime — the safe way to spawn
  /// capturing-lambda coroutines.
  template <typename Factory>
    requires std::is_invocable_r_v<Process, Factory&>
  Process spawn(Factory factory) {
    auto holder = std::make_shared<Factory>(std::move(factory));
    Process process = (*holder)();
    SPNHBM_REQUIRE(process.state_ != nullptr, "spawn of empty process");
    process.state_->keep_alive = holder;
    return spawn(std::move(process));
  }

  /// Throws the first stored-and-unconsumed process exception, if any.
  void check() const {
    for (const auto& state : states_) {
      if (state->exception && !state->exception_consumed) {
        state->exception_consumed = true;
        std::rethrow_exception(state->exception);
      }
    }
  }

  /// True once every spawned process has finished.
  bool all_done() const {
    for (const auto& state : states_) {
      if (!state->done) return false;
    }
    return true;
  }

  /// Completion states held: live processes, finished ones whose
  /// exception nobody has consumed yet, and clean ones not yet dropped.
  std::size_t tracked() const { return states_.size(); }

  Scheduler& scheduler() { return scheduler_; }

 private:
  static constexpr std::size_t kMinPruneAt = 64;

  /// Drops finished states that hold no unconsumed exception; spawn order
  /// is kept, so check() still rethrows the first failure.
  void prune() {
    std::erase_if(states_, [](const std::shared_ptr<Process::State>& state) {
      return state->done &&
             (state->exception == nullptr || state->exception_consumed);
    });
  }

  Scheduler& scheduler_;
  std::vector<std::shared_ptr<Process::State>> states_;
  std::size_t prune_at_ = kMinPruneAt;
};

}  // namespace spnhbm::sim
