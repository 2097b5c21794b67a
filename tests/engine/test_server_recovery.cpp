// Self-healing InferenceServer tests: per-batch retry with backoff,
// failover to a different engine, per-slice error isolation (a permanent
// failure only poisons the requests that were in the failed batch), the
// healthy -> degraded -> quarantined state machine with circuit-breaker
// probes and readmission, fail-fast NoHealthyEngineError, per-request
// deadlines, and the RuntimeApiError lifecycle contract.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "mock_engine.hpp"
#include "spnhbm/engine/server.hpp"

namespace spnhbm {
namespace {

using engine_test::MockEngine;
using engine_test::expect_encoded;
using engine_test::make_request;

TEST(ServerRecovery, TransientFailureIsRetriedOnTheSameEngine) {
  // Single engine whose first submit fails: the batch must be retried and
  // the request must resolve normally — the client never sees the fault.
  MockEngine::Config mock_config;
  mock_config.fail_first_n = 1;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.retry.max_attempts = 3;
  config.retry.backoff_base = std::chrono::microseconds(50);
  engine::InferenceServer server(config);
  server.register_engine(mock);

  const auto request = make_request(4, 11);
  auto future = server.submit(request);
  server.start();
  server.stop();

  expect_encoded(request, future.get());
  EXPECT_EQ(mock->submit_calls(), 2u);
  const engine::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batch_retries, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.failed_requests, 0u);
  // The success after the retry resets the state machine.
  EXPECT_EQ(server.engine_health(0), engine::EngineHealth::kHealthy);
}

TEST(ServerRecovery, RetryFailsOverToADifferentEngine) {
  // Engine A always fails, engine B always works: every batch that lands
  // on A must be retried on B, and every request must still resolve.
  MockEngine::Config broken_config;
  broken_config.fail = true;
  broken_config.name = "broken";
  auto broken = std::make_shared<MockEngine>(broken_config);
  auto good = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.policy = engine::DispatchPolicy::kRoundRobin;
  config.retry.max_attempts = 3;
  config.retry.backoff_base = std::chrono::microseconds(50);
  engine::InferenceServer server(config);
  server.register_engine(broken);
  server.register_engine(good);

  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t r = 0; r < 4; ++r) {
    requests.push_back(make_request(4, static_cast<std::uint8_t>(r * 32)));
    futures.push_back(server.submit(requests.back()));
  }
  server.start();
  server.stop();

  for (std::size_t r = 0; r < 4; ++r) {
    expect_encoded(requests[r], futures[r].get());
  }
  const engine::ServerStats stats = server.stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.failovers, stats.batch_retries);
  EXPECT_EQ(stats.failed_requests, 0u);
  // Every sample was ultimately computed by the good engine.
  EXPECT_EQ(good->stats().samples, 16u);
}

TEST(ServerRecovery, PermanentFailureOnlyPoisonsTheFailedBatchesRequests) {
  // Regression for per-slice error tracking: the engine rejects exactly
  // the batch whose first sample byte matches the poison tag, so that
  // batch burns the whole retry budget and fails permanently while the
  // other batch succeeds — and only the poisoned batch's request rethrows.
  MockEngine::Config mock_config;
  mock_config.poison_first_byte = 1;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.retry.max_attempts = 3;
  config.retry.backoff_base = std::chrono::microseconds(50);
  // Keep the engine in rotation while its first batch burns the budget.
  config.health.quarantine_after = 10;
  engine::InferenceServer server(config);
  server.register_engine(mock);

  const auto doomed = make_request(4, 1);
  const auto healthy = make_request(4, 101);
  auto doomed_future = server.submit(doomed);
  auto healthy_future = server.submit(healthy);
  server.start();
  server.stop();

  EXPECT_THROW(doomed_future.get(), Error);
  expect_encoded(healthy, healthy_future.get());
  const engine::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batch_retries, 2u);
  EXPECT_EQ(stats.failed_requests, 1u);
}

TEST(ServerRecovery, QuarantineFailsFastThenProbeReadmits) {
  // The engine fails its first two submits (exactly the retry budget and
  // the quarantine threshold), then recovers. The timeline under test:
  // permanent failure -> quarantine -> fail-fast while no probe is due ->
  // probe after the interval -> success -> readmission.
  MockEngine::Config mock_config;
  mock_config.fail_first_n = 2;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.retry.max_attempts = 2;
  config.retry.backoff_base = std::chrono::microseconds(50);
  config.health.degraded_after = 1;
  config.health.quarantine_after = 2;
  config.health.probe_interval = std::chrono::milliseconds(50);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  auto doomed = server.submit(make_request(2, 9));
  EXPECT_THROW(doomed.get(), Error);
  EXPECT_EQ(server.engine_health(0), engine::EngineHealth::kQuarantined);

  // The only engine is quarantined and its probe is not due for ~50 ms:
  // new work must be rejected fail-fast instead of queueing forever.
  EXPECT_THROW(server.submit(make_request(1, 20)),
               engine::NoHealthyEngineError);
  EXPECT_THROW(server.try_submit(make_request(1, 21)),
               engine::NoHealthyEngineError);

  // Once the probe is due, a submitted request rides the probe batch; the
  // engine has recovered, so the probe succeeds and readmits it.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const auto request = make_request(2, 40);
  auto future = server.submit(request);
  expect_encoded(request, future.get());
  server.stop();

  EXPECT_EQ(server.engine_health(0), engine::EngineHealth::kHealthy);
  const engine::ServerStats stats = server.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_GE(stats.probes, 1u);
  EXPECT_EQ(stats.readmissions, 1u);
  EXPECT_EQ(stats.failed_requests, 1u);
}

TEST(ServerRecovery, QuarantinedTierFailsOverToLowerPriorityEngine) {
  // Priority tiers: the broken tier-0 engine burns its retry budget and is
  // quarantined; traffic degrades onto the healthy tier-1 fallback instead
  // of failing, including the failover retry of the first batch.
  MockEngine::Config broken_config;
  broken_config.fail = true;
  broken_config.name = "primary";
  auto broken = std::make_shared<MockEngine>(broken_config);
  MockEngine::Config fallback_config;
  fallback_config.name = "fallback";
  auto fallback = std::make_shared<MockEngine>(fallback_config);
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.retry.max_attempts = 3;
  config.retry.backoff_base = std::chrono::microseconds(50);
  config.health.quarantine_after = 1;
  engine::InferenceServer server(config);
  server.register_engine(broken, /*priority=*/0);
  server.register_engine(fallback, /*priority=*/1);
  server.start();

  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t r = 0; r < 3; ++r) {
    requests.push_back(make_request(4, static_cast<std::uint8_t>(r * 64)));
    futures.push_back(server.submit(requests.back()));
  }
  for (std::size_t r = 0; r < 3; ++r) {
    expect_encoded(requests[r], futures[r].get());
  }
  server.stop();

  EXPECT_EQ(server.engine_health(0), engine::EngineHealth::kQuarantined);
  EXPECT_EQ(server.engine_health(1), engine::EngineHealth::kHealthy);
  EXPECT_EQ(fallback->stats().samples, 12u);
  EXPECT_GE(server.stats().failovers, 1u);
  EXPECT_EQ(server.stats().failed_requests, 0u);
}

TEST(ServerRecovery, RetryIsNotSpentProbingTheEngineItJustFailedOn) {
  // Engine A fails every submit, engine B works. With a zero probe
  // interval A's probe is due the moment A is quarantined, so a retry
  // that has just failed on A would go straight back to A as the probe
  // and burn its whole budget there. The retry must fail over to B
  // instead; fresh batches still probe A.
  MockEngine::Config broken_config;
  broken_config.fail = true;
  broken_config.name = "broken";
  auto broken = std::make_shared<MockEngine>(broken_config);
  auto good = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.retry.max_attempts = 3;
  config.retry.backoff_base = std::chrono::microseconds(100);
  config.health.probe_interval = std::chrono::microseconds(0);
  engine::InferenceServer server(config);
  server.register_engine(broken);
  server.register_engine(good);
  server.start();

  for (std::size_t r = 0; r < 8; ++r) {
    const auto request = make_request(4, static_cast<std::uint8_t>(r * 16));
    auto future = server.submit(request);
    expect_encoded(request, future.get());
  }
  server.stop();

  const engine::ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_GE(stats.probes, 1u);
  EXPECT_EQ(stats.failovers, stats.batch_retries);
  EXPECT_EQ(good->stats().samples, 32u);
}

TEST(ServerRecovery, RetryProbesTheOnlyEngineOfItsLane) {
  // One engine, failing its first three submits: the third failure
  // quarantines it mid-retry. With no other engine to fail over to, the
  // last attempt is the probe on the same engine, which succeeds and
  // readmits it.
  MockEngine::Config mock_config;
  mock_config.fail_first_n = 3;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.retry.max_attempts = 4;
  config.retry.backoff_base = std::chrono::microseconds(50);
  config.health.quarantine_after = 3;
  config.health.probe_interval = std::chrono::microseconds(0);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  const auto request = make_request(2, 30);
  auto future = server.submit(request);
  expect_encoded(request, future.get());
  server.stop();

  EXPECT_EQ(mock->submit_calls(), 4u);
  EXPECT_EQ(server.engine_health(0), engine::EngineHealth::kHealthy);
  const engine::ServerStats stats = server.stats();
  EXPECT_EQ(stats.probes, 1u);
  EXPECT_EQ(stats.readmissions, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);
}

TEST(ServerRecovery, DeadlineExpiryResolvesFuturesWithDeadlineError) {
  // A gated engine holds the first batch in flight; the per-request
  // deadline must settle both the dispatched and the still-queued request
  // with DeadlineExceededError, then the late results are discarded.
  MockEngine::Config mock_config;
  mock_config.gated = true;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.max_latency = std::chrono::milliseconds(1);
  config.request_timeout = std::chrono::milliseconds(30);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  auto stuck = server.submit(make_request(4, 5));
  auto queued = server.submit(make_request(4, 55));
  EXPECT_THROW(stuck.get(), engine::DeadlineExceededError);
  EXPECT_THROW(queued.get(), engine::DeadlineExceededError);

  mock->release();
  server.stop();
  EXPECT_EQ(server.stats().deadline_expirations, 2u);
  EXPECT_EQ(server.outstanding_samples(), 0u);
}

TEST(ServerRecovery, GenerousDeadlineDoesNotExpireServedRequests) {
  auto mock = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.max_latency = std::chrono::milliseconds(1);
  config.request_timeout = std::chrono::seconds(5);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  const auto request = make_request(3, 77);
  auto future = server.submit(request);
  expect_encoded(request, future.get());
  server.stop();
  EXPECT_EQ(server.stats().deadline_expirations, 0u);
}

TEST(ServerRecovery, LifecycleMisuseThrowsRuntimeApiError) {
  // submit() before any engine is registered and after stop() are runtime
  // API misuse, distinct from request-validation logic errors.
  engine::InferenceServer server;
  EXPECT_THROW(server.submit(make_request(1, 0)), RuntimeApiError);
  EXPECT_THROW(server.try_submit(make_request(1, 0)), RuntimeApiError);

  server.register_engine(std::make_shared<MockEngine>());
  server.start();
  server.stop();
  EXPECT_THROW(server.submit(make_request(1, 0)), RuntimeApiError);
  EXPECT_THROW(server.try_submit(make_request(1, 0)), RuntimeApiError);
}

TEST(ServerRecovery, HealthNamesAreStable) {
  EXPECT_EQ(engine::to_string(engine::EngineHealth::kHealthy), "healthy");
  EXPECT_EQ(engine::to_string(engine::EngineHealth::kDegraded), "degraded");
  EXPECT_EQ(engine::to_string(engine::EngineHealth::kQuarantined),
            "quarantined");
}

TEST(ServerRecovery, RecoveryStatsAppearInDescribe) {
  MockEngine::Config mock_config;
  mock_config.fail_first_n = 1;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.retry.backoff_base = std::chrono::microseconds(50);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  auto future = server.submit(make_request(2, 1));
  server.start();
  server.stop();
  future.get();
  const std::string description = server.stats().describe();
  EXPECT_NE(description.find("recovery:"), std::string::npos);
  EXPECT_NE(description.find("1 retries"), std::string::npos);
}

}  // namespace
}  // namespace spnhbm
