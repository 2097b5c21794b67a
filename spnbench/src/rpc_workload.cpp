// rpc-small: one-sample NIPS10 CFP joint requests over loopback RPC.
//
// Every phase builds a fresh in-process stack — RpcServer ->
// InferenceServer -> one 1-PE FpgaSimEngine — and drives it from the
// benchmark's own open-loop generator: one sender thread per connection,
// due times from a seeded Poisson schedule, latency timed from the due
// time. Two phases:
//   soak     at a fixed rate until the engine has served
//            kMinEngineBatches batches, so per-batch cost that grows with
//            the batches served shows;
//   ladder   fresh stacks at doubling rates up to the first rate that
//            misses the p99 limit or builds a backlog, then a few longer
//            rungs just past the rate the stack sustained there: the
//            median rate they sustain is the knee.
// The card's virtual-clock metrics come from a replay, not the soak: the
// soak's seeded arrivals, batched by the server's discipline, run through
// a fresh card. The soak's own batch sizes follow the host's scheduling.
// Request latency at the fixed rate is reported per layer and in the
// notes, not as a bounded end-to-end metric: on a shared 4-vCPU VM its p50
// and p99 flipped between runs with the host's scheduling (an idle thread
// sleeping 500 us woke 3-7 ms late at p99 there), far beyond any bound.
//
// Clients are plain RpcClients: they send no idempotency keys, so nothing
// can be answered from the server's replay cache; the run asserts the
// server counted no duplicates.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "layer_metrics.hpp"
#include "layers.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"
#include "spnhbm/arith/backend.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/rpc/client.hpp"
#include "spnhbm/rpc/server.hpp"
#include "spnhbm/spn/queries.hpp"
#include "spnhbm/util/strings.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnbench {
namespace {

using namespace spnhbm;

constexpr std::size_t kVariables = 10;
constexpr std::size_t kRowPool = 4096;
/// About five requests per flush deadline: a light load on the request
/// path, so latency at this rate shows the engine's per-batch cost, with
/// enough requests per one-second window for a p99 with 50 beyond it.
constexpr double kSoakRateRps = 5000.0;
constexpr std::uint64_t kMinEngineBatches = 10'000;
/// Share of the run that is the soak's minimum length; the ladder gets the
/// rest.
constexpr double kSoakShare = 0.5;
/// The soak gives up waiting for kMinEngineBatches after this long.
constexpr double kSoakCapSeconds = 45.0;
/// The ladder's latency limit. It sits far above the 1 ms flush deadline,
/// so a rung fails at the saturation knee, where p99 grows without bound,
/// and not on scheduler noise of a shared host.
constexpr double kP99LimitUs = 100'000.0;
/// The ladder doubles from kLadderStartRps while rungs pass, for at most
/// kLadderMaxProbes rungs. The ladder's time is split into
/// kLadderTimeSlots: each doubling rung takes one slot, and the
/// kSaturatedRungs rungs that follow share the rest.
constexpr double kLadderStartRps = 32000.0;
constexpr int kLadderMaxProbes = 6;
constexpr int kLadderTimeSlots = 10;
constexpr int kSaturatedRungs = 7;
/// Saturated rungs offer this multiple of the rate the first failing rung
/// sustained: far enough past the knee that the stack serves flat out, and
/// near enough that the backlog stays below the queue bound.
constexpr double kSaturationOverload = 1.25;
/// Requests of the soak's schedule replayed through a fresh card for the
/// virtual-clock metrics.
constexpr std::size_t kReplayRequests = 10'000;
constexpr int kSetupRepeats = 61;
constexpr std::uint64_t kRooflineSamples = 1'500'000;
constexpr std::size_t kCpuCeilingSamples = 64 * kRowPool;

struct Rows {
  std::vector<std::uint8_t> bytes;  ///< kRowPool rows of kVariables bytes
  std::vector<double> expected;     ///< DatapathModule::evaluate per row

  std::span<const std::uint8_t> row(std::size_t i) const {
    return std::span(bytes).subspan(i * kVariables, kVariables);
  }
};

Rows make_rows(std::uint64_t seed, const model::ModelArtifact& model) {
  Rng rng(derive_seed(seed, 11));
  Rows rows;
  for (std::size_t i = 0; i < kRowPool; ++i) {
    for (const double value : spn::sample(model.spn(), rng)) {
      rows.bytes.push_back(static_cast<std::uint8_t>(
          std::clamp(std::llround(value), 0LL, 255LL)));
    }
  }
  for (std::size_t i = 0; i < kRowPool; ++i) {
    rows.expected.push_back(model.module().evaluate(model.backend(), rows.row(i)));
  }
  return rows;
}

/// One fresh serving stack. Members are destroyed bottom-up: clients hang
/// up first, then the RPC front end, the service wrapper and the server
/// stop, and the engine goes last.
struct Stack {
  std::shared_ptr<engine::FpgaSimEngine> engine;
  std::shared_ptr<TimedEngine> timed;
  std::unique_ptr<engine::InferenceServer> server;
  std::unique_ptr<TracedService> traced;
  std::unique_ptr<rpc::RpcServer> rpc;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;

  /// Stops serving so the engine and server statistics are final.
  void stop() {
    clients.clear();
    rpc->stop();
    server->stop();
  }
};

std::unique_ptr<Stack> make_stack(const model::ModelHandle& model,
                                  std::size_t connections,
                                  SpanRecorder* spans) {
  auto stack = std::make_unique<Stack>();
  engine::FpgaEngineConfig config;
  config.pe_count = 1;
  stack->engine = std::make_shared<engine::FpgaSimEngine>(model, config);
  stack->server =
      std::make_unique<engine::InferenceServer>(engine::ServerConfig{});
  if (spans != nullptr) {
    stack->timed = std::make_shared<TimedEngine>(stack->engine, *spans);
    stack->server->register_engine(stack->timed);
  } else {
    stack->server->register_engine(stack->engine);
  }
  stack->server->start();
  engine::InferenceService* service = stack->server.get();
  if (spans != nullptr) {
    stack->traced = std::make_unique<TracedService>(*stack->server, *spans);
    service = stack->traced.get();
  }
  stack->rpc = std::make_unique<rpc::RpcServer>(*service, rpc::RpcServerConfig{});
  stack->rpc->start();
  for (std::size_t c = 0; c < connections; ++c) {
    stack->clients.push_back(
        rpc::RpcClient::connect("127.0.0.1", stack->rpc->port()));
  }
  return stack;
}

/// One warm-up request per connection, in connection order and each
/// awaited, so the server's reader thread of connection c is the c-th
/// caller the service wrapper sees. Returns the number answered wrongly.
std::size_t warm_up(Stack& stack, const std::string& lane, const Rows& rows) {
  std::size_t wrong = 0;
  for (auto& client : stack.clients) {
    const auto row = rows.row(0);
    const auto result =
        client->infer(lane, std::vector<std::uint8_t>(row.begin(), row.end()));
    wrong += count_bit_mismatches(result, std::span(rows.expected).first(1));
  }
  return wrong;
}

struct Load {
  double rate_rps = 0.0;
  std::uint64_t seed = 0;
  double min_seconds = 0.0;
  std::uint64_t min_batches = 0;
  double max_seconds = 0.0;
};

enum Outcome : std::uint8_t { kNoAnswer = 0, kOk, kWrongBits, kErrorStatus };

struct LoadResult {
  Books books;
  std::uint64_t wrong_bits = 0;
  std::uint64_t unanswered = 0;
  std::vector<double> latency_us;  ///< OK requests, in send order
  std::vector<double> lateness_us;
  double achieved_rps = 0.0;
  /// OK answers per second over the last three quarters of the sending
  /// span: under overload, the rate the stack serves while loaded.
  double served_rps = 0.0;
  double elapsed_s = 0.0;
  bool backlog_growing = false;
  bool hit_cap = false;
  bool unanswered_at_timeout = false;
  double p99_us = 0.0;
  /// Medians over the phase's one-second windows of each window's p50
  /// and p99.
  double window_p50_us = 0.0;
  double window_p99_us = 0.0;
  // Per request, for linking spans (traced runs only).
  std::vector<std::int64_t> due_abs_ns;
  std::vector<std::int64_t> done_ns;
  std::vector<std::uint8_t> outcome;
  std::size_t connections = 0;
};

/// Percentile `p` of the latency of each one-second window of due times
/// (windows with at least 1000 answered requests), and the median of those
/// percentiles: a stall of the shared host moves one window, not the
/// result, while latency that grows over the phase still moves it.
double median_window_percentile(const std::vector<std::int64_t>& due,
                                const std::vector<std::int64_t>& sent_ns,
                                const std::vector<std::uint8_t>& outcome,
                                const std::vector<std::int64_t>& done_ns,
                                std::int64_t start_ns, double p) {
  std::vector<std::vector<double>> windows;
  for (std::size_t k = 0; k < due.size(); ++k) {
    if (sent_ns[k] == 0 || outcome[k] != kOk) continue;
    const auto w = static_cast<std::size_t>(due[k] / 1'000'000'000);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(static_cast<double>(done_ns[k] - start_ns - due[k]) / 1e3);
  }
  std::vector<double> per_window;
  for (const auto& window : windows) {
    if (window.size() >= 1000) per_window.push_back(percentile(window, p));
  }
  if (per_window.empty()) {
    std::vector<double> all;
    for (const auto& window : windows) all.insert(all.end(), window.begin(), window.end());
    return percentile(all, p);
  }
  return median(per_window);
}

/// Offers `load` to the stack's connections and waits for every answer.
LoadResult offer(Stack& stack, const std::string& lane, const Rows& rows,
                 const Load& load) {
  const std::size_t connections = stack.clients.size();
  const auto capacity = static_cast<std::size_t>(
      std::ceil(load.rate_rps * load.max_seconds * 1.2)) + 16;
  const std::vector<std::int64_t> due =
      poisson_due_times(load.seed, load.rate_rps, capacity);
  std::vector<std::uint32_t> row_of(capacity);
  {
    Rng rng(derive_seed(load.seed, 1));
    for (auto& r : row_of) r = static_cast<std::uint32_t>(rng.next_below(kRowPool));
  }
  std::vector<std::int64_t> sent_ns(capacity, 0);
  std::vector<std::int64_t> done_ns(capacity, 0);
  std::vector<std::uint8_t> outcome(capacity, kNoAnswer);
  std::vector<std::uint64_t> sent_by(connections, 0);
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::uint64_t answered = 0;  // guarded by done_mutex
  const std::int64_t stop_never = std::numeric_limits<std::int64_t>::max();
  std::atomic<std::int64_t> stop_after_due{stop_never};

  const std::int64_t start_ns = now_ns() + 2'000'000;  // senders get ready
  const auto start = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(start_ns));
  std::vector<std::thread> senders;
  for (std::size_t g = 0; g < connections; ++g) {
    senders.emplace_back([&, g] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      rpc::RpcClient& client = *stack.clients[g];
      for (std::size_t k = g; k < capacity; k += connections) {
        if (due[k] > stop_after_due.load(std::memory_order_acquire)) break;
        std::this_thread::sleep_until(start + std::chrono::nanoseconds(due[k]));
        if (due[k] > stop_after_due.load(std::memory_order_acquire)) break;
        const auto row = rows.row(row_of[k]);
        sent_ns[k] = now_ns();
        const double expected = rows.expected[row_of[k]];
        const auto answer = [&, k](Outcome what) {
          done_ns[k] = now_ns();
          outcome[k] = what;
          // Notify under the lock: once the waiter sees the last answer it
          // returns and destroys the condition variable.
          const std::lock_guard<std::mutex> lock(done_mutex);
          ++answered;
          done_cv.notify_all();
        };
        try {
          client.submit_with_callback(
              lane, std::vector<std::uint8_t>(row.begin(), row.end()), 0,
              [answer, expected](rpc::Status status,
                                 const std::vector<double>& results,
                                 const std::string&) {
                if (status != rpc::Status::kOk) {
                  answer(kErrorStatus);
                } else if (results.size() == 1 &&
                           std::bit_cast<std::uint64_t>(results[0]) ==
                               std::bit_cast<std::uint64_t>(expected)) {
                  answer(kOk);
                } else {
                  answer(kWrongBits);
                }
              });
        } catch (const std::exception&) {
          answer(kErrorStatus);  // the connection is gone; nothing was sent
        }
        ++sent_by[g];
      }
    });
  }

  LoadResult result;
  std::int64_t sending_ns = 0;
  // Stop once the phase is long enough and the engine has served enough
  // batches, or at the cap.
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double elapsed = static_cast<double>(now_ns() - start_ns) / 1e9;
    const bool long_enough =
        elapsed >= load.min_seconds &&
        (load.min_batches == 0 ||
         stack.server->stats().batches >= load.min_batches);
    if (long_enough || elapsed >= load.max_seconds) {
      result.hit_cap = !long_enough;
      sending_ns = static_cast<std::int64_t>(elapsed * 1e9);
      stop_after_due.store(sending_ns, std::memory_order_release);
      break;
    }
  }
  for (auto& t : senders) t.join();
  std::uint64_t sent = 0;
  for (const auto n : sent_by) sent += n;
  bool all_answered = false;
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    all_answered = done_cv.wait_for(lock, std::chrono::seconds(60),
                                    [&] { return answered >= sent; });
  }
  if (!all_answered) {
    // Closing fails the outstanding callbacks now, while their state is
    // still alive.
    result.unanswered_at_timeout = true;
    for (auto& client : stack.clients) client->close();
  }
  const std::lock_guard<std::mutex> lock(done_mutex);

  std::int64_t last_done = start_ns;
  for (std::size_t k = 0; k < capacity; ++k) {
    if (sent_ns[k] == 0) continue;
    ++result.books.sent;
    const std::int64_t due_abs = start_ns + due[k];
    result.lateness_us.push_back(static_cast<double>(sent_ns[k] - due_abs) / 1e3);
    switch (outcome[k]) {
      case kOk:
        ++result.books.ok;
        result.latency_us.push_back(static_cast<double>(done_ns[k] - due_abs) / 1e3);
        last_done = std::max(last_done, done_ns[k]);
        break;
      case kWrongBits:
        ++result.wrong_bits;
        ++result.books.failed;
        break;
      case kErrorStatus:
        ++result.books.failed;
        break;
      default:
        ++result.unanswered;
        break;
    }
  }
  result.elapsed_s = static_cast<double>(last_done - start_ns) / 1e9;
  result.achieved_rps =
      result.elapsed_s > 0.0 ? static_cast<double>(result.books.ok) / result.elapsed_s
                             : 0.0;
  {
    const std::int64_t from = start_ns + sending_ns / 4;
    const std::int64_t to = start_ns + sending_ns;
    std::uint64_t served = 0;
    for (std::size_t k = 0; k < capacity; ++k) {
      served += outcome[k] == kOk && done_ns[k] >= from && done_ns[k] < to;
    }
    result.served_rps = static_cast<double>(served) /
                        (static_cast<double>(to - from) / 1e9);
  }
  result.p99_us = percentile(result.latency_us, 99.0);
  result.window_p50_us = median_window_percentile(due, sent_ns, outcome,
                                                  done_ns, start_ns, 50.0);
  result.window_p99_us = median_window_percentile(due, sent_ns, outcome,
                                                  done_ns, start_ns, 99.0);
  // A growing backlog: the last fifth of requests waits longer than the
  // first fifth by half the ladder's latency limit (a stall of the host
  // does not reach that; a queue that grows for a whole rung does).
  const std::size_t fifth = result.latency_us.size() / 5;
  if (fifth > 0) {
    const std::span<const double> all(result.latency_us);
    const double first = median({all.begin(), all.begin() + fifth});
    const double last = median({all.end() - fifth, all.end()});
    result.backlog_growing = last > first + kP99LimitUs / 2.0;
  }
  result.connections = connections;
  for (std::size_t k = 0; k < capacity; ++k) {
    if (sent_ns[k] == 0) continue;
    result.due_abs_ns.push_back(start_ns + due[k]);
    result.done_ns.push_back(done_ns[k]);
    result.outcome.push_back(outcome[k]);
  }
  return result;
}

/// Checks common to every phase: right bits, balanced books, nothing
/// answered from the replay cache, server books conserved.
void check(RunReport& report, const LoadResult& load,
           const rpc::RpcServerStats& rpc_stats, std::uint64_t warm_up_wrong,
           const char* phase) {
  report.attempted += load.books.sent;
  report.failed += load.books.failed + load.unanswered;
  if (load.wrong_bits > 0 || warm_up_wrong > 0) {
    report.fail_check(strformat(
        "%s: %llu results differ from DatapathModule::evaluate", phase,
        static_cast<unsigned long long>(load.wrong_bits + warm_up_wrong)));
  }
  if (load.unanswered > 0 || load.unanswered_at_timeout) {
    report.fail_check(strformat("%s: %llu requests never answered", phase,
                                static_cast<unsigned long long>(load.unanswered)));
  }
  if (!load.books.balanced()) {
    report.fail_check(std::string(phase) + ": sent != ok + failed");
  }
  if (rpc_stats.duplicates != 0) {
    report.fail_check(strformat(
        "%s: rpc.duplicates = %llu (replayed answers are not inference)", phase,
        static_cast<unsigned long long>(rpc_stats.duplicates)));
  }
  if (!rpc_stats.conserved()) {
    report.fail_check(std::string(phase) + ": RPC server books not conserved");
  }
}

/// The card's virtual throughput at the batch sizes the soak's load
/// forms, as a function of the seed: the first kReplayRequests of the
/// soak's schedule (same due times, same rows) grouped as the server groups
/// them when the host keeps up — a batch closes when it holds the lane's
/// target or when its oldest request has waited the flush deadline — and
/// run through a fresh 1-PE card. Counts every result that differs from
/// DatapathModule::evaluate in `wrong`.
double replay_sim_rate(const model::ModelHandle& model, const Rows& rows,
                       std::uint64_t soak_seed, std::size_t batch_target,
                       std::chrono::microseconds flush_deadline,
                       std::uint64_t& wrong) {
  const std::vector<std::int64_t> due =
      poisson_due_times(soak_seed, kSoakRateRps, kReplayRequests);
  Rng rng(derive_seed(soak_seed, 1));  // the row draws offer() makes
  std::vector<std::uint32_t> row_of(due.size());
  for (auto& r : row_of) r = static_cast<std::uint32_t>(rng.next_below(kRowPool));

  engine::FpgaEngineConfig config;
  config.pe_count = 1;
  engine::FpgaSimEngine card(model, config);
  const std::int64_t deadline_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(flush_deadline).count();
  std::vector<std::uint8_t> batch;
  std::vector<double> expected;
  for (std::size_t k = 0; k < due.size();) {
    const std::int64_t close = due[k] + deadline_ns;
    batch.clear();
    expected.clear();
    for (; k < due.size() && due[k] <= close && expected.size() < batch_target; ++k) {
      const auto row = rows.row(row_of[k]);
      batch.insert(batch.end(), row.begin(), row.end());
      expected.push_back(rows.expected[row_of[k]]);
    }
    wrong += count_bit_mismatches(card.infer(batch), expected);
  }
  const engine::EngineStats stats = card.stats();
  return static_cast<double>(stats.samples) / stats.busy_seconds;
}

model::ModelHandle compile_model(const spn::Spn& spn) {
  return model::ModelArtifact::compile(
      "nips10", "1", spn, arith::make_cfp_backend(arith::paper_cfp_format()));
}

}  // namespace

RunReport run_rpc_small(const Options& options) {
  RunReport report;
  const workload::NipsModel nips = workload::make_nips_model(kVariables);
  // One connection (and so one sender thread): with two, the stack's
  // threads outnumber the 4 vCPUs of a small host, and the rate it
  // sustained under overload spread 0.16 of the median (quartile
  // distance) over six runs there, against 0.04 with one connection.
  const std::size_t connections = 1;

  // Set-up: compile, then engine + server + RPC front end + connections.
  std::vector<double> setup_times;
  model::ModelHandle model;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const std::int64_t start = now_ns();
    model = compile_model(nips.spn);
    const auto stack = make_stack(model, connections, nullptr);
    setup_times.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  const double setup_s = median(setup_times);
  const std::string lane = model->id();
  const Rows rows = make_rows(options.seed, *model);

  engine::FpgaEngineConfig probe;
  probe.pe_count = 1;
  probe.compute_results = false;
  const double roofline =
      engine::FpgaSimEngine(model, probe).measure_throughput(kRooflineSamples);

  const Load soak_load{kSoakRateRps, derive_seed(options.seed, 21),
                       options.seconds * (options.trace ? 0.5 : kSoakShare),
                       kMinEngineBatches, kSoakCapSeconds};

  struct SoakRun {
    LoadResult load;
    rpc::RpcServerStats rpc;
    engine::ServerStats server;
    engine::EngineStats engine;
    std::vector<BatchRecord> batches;
    std::vector<TracedService::Submission> submissions;
    CardCounters card;
    /// The coalescing target of the soak's lane.
    std::size_t batch_target = 0;
  };
  const auto run_soak = [&](SpanRecorder* spans, const char* phase) {
    const CardCounters card_before = CardCounters::read();
    auto stack = make_stack(model, connections, spans);
    const std::size_t wrong = warm_up(*stack, lane, rows);
    SoakRun run;
    run.load = offer(*stack, lane, rows, soak_load);
    run.batch_target = stack->server->batch_samples(lane);
    stack->stop();
    run.rpc = stack->rpc->stats();
    run.server = stack->server->stats();
    run.engine = stack->engine->stats();
    run.card = CardCounters::read() - card_before;
    if (spans != nullptr) {
      run.batches = stack->timed->batches();
      run.submissions = stack->traced->submissions();
    }
    check(report, run.load, run.rpc, wrong, phase);
    if (run.load.hit_cap) {
      report.notes.push_back(strformat(
          "%s stopped at the %.0f s cap before %llu engine batches", phase,
          kSoakCapSeconds, static_cast<unsigned long long>(kMinEngineBatches)));
    }
    report.notes.push_back(strformat(
        "%s at %.0f req/s over %zu connections: %llu requests, %llu engine "
        "batches, %.1f s, p50 %.0f us, p99 %.0f us, generator lateness p99 "
        "%.0f us",
        phase, soak_load.rate_rps, connections,
        static_cast<unsigned long long>(run.load.books.sent),
        static_cast<unsigned long long>(run.server.batches), run.load.elapsed_s,
        run.load.window_p50_us, run.load.window_p99_us,
        percentile(run.load.lateness_us, 99.0)));
    return run;
  };

  if (!options.trace) {
    const SoakRun soak = run_soak(nullptr, "soak");
    // Memory of set-up and steady serving; the ladder's saturated rungs
    // hold backlogs whose size is a matter of timing.
    const double rss_mb = peak_rss_mb();
    // The ladder: doubling rungs find the first rate the stack cannot
    // serve within the p99 limit without a backlog; the saturated rungs
    // then offer a little more than that rung sustained, and the median
    // rate they sustain is max_rate_rps. A rate sustained under overload
    // is a throughput, so it holds still where the p99 of any one rung
    // near the knee would not.
    const double slot_seconds =
        options.seconds * (1.0 - kSoakShare) / kLadderTimeSlots;
    int step = 0;
    const auto rung = [&](double rate, double seconds) {
      auto stack = make_stack(model, connections, nullptr);
      const std::size_t wrong = warm_up(*stack, lane, rows);
      const Load load{rate, derive_seed(options.seed, 100 + step), seconds, 0,
                      seconds};
      ++step;
      LoadResult result = offer(*stack, lane, rows, load);
      stack->stop();
      check(report, result, stack->rpc->stats(), wrong, "rate ladder");
      return result;
    };
    double knee_rps = 0.0;
    double rate = kLadderStartRps;
    for (int probe = 0; probe < kLadderMaxProbes; ++probe, rate *= 2.0) {
      const LoadResult result = rung(rate, slot_seconds);
      const bool pass = result.books.failed == 0 && result.unanswered == 0 &&
                        result.p99_us <= kP99LimitUs && !result.backlog_growing &&
                        result.achieved_rps >= 0.9 * rate;
      report.notes.push_back(strformat(
          "ladder %.0f req/s: achieved %.0f, p99 %.0f us, backlog %s -> %s", rate,
          result.achieved_rps, result.p99_us,
          result.backlog_growing ? "growing" : "steady", pass ? "pass" : "fail"));
      knee_rps = result.achieved_rps;
      if (!pass) break;
    }
    const double saturated_seconds =
        std::max(slot_seconds, (kLadderTimeSlots - step) * slot_seconds /
                                   kSaturatedRungs);
    std::vector<double> sustained;
    for (int r = 0; r < kSaturatedRungs; ++r) {
      const LoadResult result =
          rung(kSaturationOverload * knee_rps, saturated_seconds);
      sustained.push_back(result.served_rps);
      report.notes.push_back(strformat(
          "saturated %.0f req/s for %.1f s: sustained %.0f, p99 %.0f us",
          kSaturationOverload * knee_rps, saturated_seconds, result.served_rps,
          result.p99_us));
    }

    std::uint64_t replay_wrong = 0;
    const double sim_rate = replay_sim_rate(
        model, rows, soak_load.seed, soak.batch_target,
        engine::ServerConfig{}.max_latency, replay_wrong);
    report.attempted += kReplayRequests;
    if (replay_wrong > 0) {
      report.failed += replay_wrong;
      report.fail_check(strformat(
          "card replay: %llu results differ from DatapathModule::evaluate",
          static_cast<unsigned long long>(replay_wrong)));
    }
    report.add("setup_s", setup_s, "s", Clock::kHost);
    report.add("peak_rss_mb", rss_mb, "MiB", Clock::kHost);
    report.add("host_samples_per_s", soak.load.achieved_rps, "1/s", Clock::kHost);
    report.add("sim_samples_per_s", sim_rate, "1/s", Clock::kVirtual);
    report.add("sim_roofline_fraction", sim_rate / roofline, "fraction",
               Clock::kVirtual);
    report.add("achieved_rps", soak.load.achieved_rps, "1/s", Clock::kHost);
    report.add("max_rate_rps", median(sustained), "1/s", Clock::kHost);
    return report;
  }

  // Traced run: the soak untraced (the overhead reference), then traced on
  // a fresh stack.
  const SoakRun plain = run_soak(nullptr, "soak");
  SpanRecorder spans;
  const SoakRun traced = run_soak(&spans, "traced soak");

  // Link spans: the c-th caller the service wrapper saw is connection c
  // (warm-up order); its sequence s >= 1 is that connection's (s-1)-th
  // request, and requests were dealt to connections round-robin.
  std::vector<Span> all = spans.spans();
  std::unordered_map<std::uint64_t, SpanLink> links;
  const LoadResult& load = traced.load;
  const std::size_t sent = load.due_abs_ns.size();
  std::vector<std::uint64_t> client_span(sent, 0);
  for (std::size_t k = 0; k < sent; ++k) {
    if (load.outcome[k] == kNoAnswer) continue;
    client_span[k] = spans.next_id();
    all.push_back({client_span[k], 0, k + 1, "client.request", load.due_abs_ns[k],
                   load.done_ns[k]});
  }
  for (const auto& s : traced.submissions) {
    if (s.sequence == 0) continue;  // warm-up
    const std::size_t k = (s.sequence - 1) * load.connections + s.caller;
    if (k < sent && client_span[k] != 0) links[s.span] = {client_span[k], k + 1};
  }
  apply_links(all, links);
  if (!options.spans_out.empty()) {
    if (!write_jsonl(options.spans_out, all)) {
      report.notes.push_back("could not write spans to " + options.spans_out);
    }
  }

  LayerMetrics m;
  m.evaluate_ns_per_sample =
      time_per_call_ns(kRowPool, [&](std::size_t i) {
        (void)model->module().evaluate(model->backend(), rows.row(i));
      });
  m.evaluate_ns_per_op = m.evaluate_ns_per_sample /
                         static_cast<double>(model->module().ops().size());
  fill_engine(m, traced.batches, load.elapsed_s);
  fill_card(m, traced.card, traced.engine.samples, traced.engine.batches,
            traced.engine.busy_seconds);
  const engine::ServerStats server_stats[] = {traced.server};
  m.server = summarize(server_stats);
  m.rpc_server_latency_p50_us = traced.rpc.request_latency_us.p50();
  m.rpc_server_latency_p99_us = traced.rpc.request_latency_us.p99();
  const auto layers = layer_times(all);
  if (const auto it = layers.find("client.request"); it != layers.end()) {
    m.rpc_wire_us = it->second.mean_self_us();
  }
  m.rpc_shed = static_cast<double>(traced.rpc.shed());
  m.rpc_duplicates = static_cast<double>(traced.rpc.duplicates);
  m.gen_lateness_p99_us = percentile(load.lateness_us, 99.0);
  m.client_latency_p50_us = plain.load.window_p50_us;
  m.client_latency_p99_us = plain.load.window_p99_us;
  m.fig6_sim_samples_per_s = roofline;
  {
    // The row pool repeated into one batch large enough to amortise the
    // CPU engine's thread fan-out.
    std::vector<std::uint8_t> batch;
    for (std::size_t i = 0; i < kCpuCeilingSamples / kRowPool; ++i) {
      batch.insert(batch.end(), rows.bytes.begin(), rows.bytes.end());
    }
    engine::CpuEngine cpu(model);
    const std::int64_t start = now_ns();
    (void)cpu.infer(batch);
    m.cpu_engine_samples_per_s =
        static_cast<double>(batch.size() / kVariables) /
        (static_cast<double>(now_ns() - start) / 1e9);
  }
  m.tracing_overhead_fraction =
      percentile(load.latency_us, 50.0) / percentile(plain.load.latency_us, 50.0) -
      1.0;
  m.layers = layers;
  m.spans = all.size();
  add_layer_metrics(report, m);
  return report;
}

}  // namespace spnbench
