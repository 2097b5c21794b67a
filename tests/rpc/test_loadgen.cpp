// Load-generator tests: schedule determinism for every arrival process
// (no sockets involved), then end-to-end runs against a real serving
// stack — a healthy run where every request succeeds, and an overloaded
// run where the retryable sheds show up in the report without breaking
// the sent == sum(by_status) conservation law.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>

#include "../engine/mock_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/rpc/loadgen.hpp"
#include "spnhbm/rpc/server.hpp"
#include "spnhbm/spn/random_spn.hpp"

namespace spnhbm::rpc {
namespace {

using engine_test::MockEngine;
using engine_test::make_request;

TEST(LoadgenSchedule, ParsesArrivalProcessNames) {
  EXPECT_EQ(parse_arrival_process("fixed"), ArrivalProcess::kFixed);
  EXPECT_EQ(parse_arrival_process("poisson"), ArrivalProcess::kPoisson);
  EXPECT_EQ(parse_arrival_process("bursty"), ArrivalProcess::kBursty);
  EXPECT_THROW(parse_arrival_process("uniform"), Error);
}

TEST(LoadgenSchedule, FixedArrivalsAreEvenlySpaced) {
  LoadgenConfig config;
  config.arrival = ArrivalProcess::kFixed;
  config.rate_rps = 1000.0;  // period 1000 us
  config.request_count = 5;
  const auto schedule = make_schedule(config);
  ASSERT_EQ(schedule.size(), 5u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i], i * 1000u) << i;
  }
}

TEST(LoadgenSchedule, BurstyGroupsBackToBackAtTheMeanRate) {
  LoadgenConfig config;
  config.arrival = ArrivalProcess::kBursty;
  config.rate_rps = 1000.0;
  config.burst_size = 4;  // bursts every 4000 us
  config.request_count = 10;
  const auto schedule = make_schedule(config);
  ASSERT_EQ(schedule.size(), 10u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i], (i / 4) * 4000u) << i;
  }
}

TEST(LoadgenSchedule, PoissonIsSeedDeterministicWithPlausibleMean) {
  LoadgenConfig config;
  config.arrival = ArrivalProcess::kPoisson;
  config.rate_rps = 1000.0;
  config.request_count = 2000;
  config.seed = 7;
  const auto schedule = make_schedule(config);
  ASSERT_EQ(schedule.size(), 2000u);
  EXPECT_EQ(schedule, make_schedule(config));  // same seed, same schedule

  config.seed = 8;
  const auto other = make_schedule(config);
  EXPECT_NE(schedule, other);  // the seed actually feeds the draw

  // Offsets are sorted and the empirical mean inter-arrival is near the
  // configured 1000 us (deterministic given the seed, so a tight-ish
  // bound is safe).
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    ASSERT_GE(schedule[i], schedule[i - 1]);
  }
  const double mean_us =
      static_cast<double>(schedule.back()) /
      static_cast<double>(schedule.size() - 1);
  EXPECT_GT(mean_us, 900.0);
  EXPECT_LT(mean_us, 1100.0);
}

TEST(LoadgenSchedule, ModelPicksAreSeedDeterministicAndWeighted) {
  LoadgenConfig config;
  config.request_count = 4000;
  config.seed = 11;
  EXPECT_TRUE(make_model_picks(config).empty());  // single-model run

  config.traffic.push_back({"hot@1", 3.0, {}, {}});
  config.traffic.push_back({"cold@1", 1.0, {}, {}});
  const auto picks = make_model_picks(config);
  ASSERT_EQ(picks.size(), 4000u);
  EXPECT_EQ(picks, make_model_picks(config));  // same seed, same mix

  config.seed = 12;
  EXPECT_NE(picks, make_model_picks(config));  // the seed feeds the draw

  // The empirical split tracks the 3:1 weights.
  const auto hot = static_cast<double>(
      std::count(picks.begin(), picks.end(), std::size_t{0}));
  EXPECT_GT(hot / 4000.0, 0.70);
  EXPECT_LT(hot / 4000.0, 0.80);

  LoadgenConfig bad = config;
  bad.traffic[0].weight = 0.0;
  EXPECT_THROW(make_model_picks(bad), std::logic_error);
}

/// Serving stack on an ephemeral port for the e2e runs.
struct Stack {
  explicit Stack(MockEngine::Config mock_config = {},
                 AdmissionConfig admission = {}) {
    engine::ServerConfig config;
    config.batch_samples = 8;
    config.max_latency = std::chrono::microseconds(200);
    server = std::make_unique<engine::InferenceServer>(config);
    mock = std::make_shared<MockEngine>(mock_config);
    server->register_engine(mock);
    server->start();
    RpcServerConfig rpc_config;
    rpc_config.admission = admission;
    front = std::make_unique<RpcServer>(*server, rpc_config);
    front->start();
  }

  ~Stack() {
    mock->release();
    front->stop();
    server->stop();
  }

  std::shared_ptr<MockEngine> mock;
  std::unique_ptr<engine::InferenceServer> server;
  std::unique_ptr<RpcServer> front;
};

TEST(Loadgen, HealthyRunCompletesEveryRequest) {
  Stack stack;
  LoadgenConfig config;
  config.port = stack.front->port();
  config.model = "mock@1";
  config.payloads = {make_request(1, 1), make_request(2, 9)};
  config.request_count = 200;
  config.rate_rps = 20'000.0;
  config.arrival = ArrivalProcess::kPoisson;
  config.connections = 4;

  const LoadgenReport report = run_loadgen(config);
  EXPECT_EQ(report.sent, 200u);
  EXPECT_EQ(report.ok(), 200u);
  EXPECT_TRUE(report.conserved()) << report.describe();
  EXPECT_EQ(report.latency_us.count, 200u);
  EXPECT_GT(report.achieved_rps, 0.0);
  EXPECT_DOUBLE_EQ(report.offered_rps, 20'000.0);

  // Client- and server-side books agree.
  const RpcServerStats stats = stack.front->stats();
  EXPECT_EQ(stats.received, 200u);
  EXPECT_EQ(stats.completed, 200u);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
}

TEST(Loadgen, OverloadShowsUpAsRetryableShedsNotHangs) {
  // A one-token bucket with a ~zero refill rate: the first request is
  // admitted, the rest must come back OVERLOADED while the run still
  // terminates (the open loop never waits for queue space).
  AdmissionConfig admission;
  admission.rate_limit_rps = 0.001;
  admission.burst = 1.0;
  Stack stack({}, admission);

  LoadgenConfig config;
  config.port = stack.front->port();
  config.payloads = {make_request(1, 5)};  // model defaults to the first
  config.request_count = 50;
  config.rate_rps = 50'000.0;
  config.arrival = ArrivalProcess::kBursty;
  config.burst_size = 10;

  const LoadgenReport report = run_loadgen(config);
  EXPECT_EQ(report.sent, 50u);
  EXPECT_TRUE(report.conserved()) << report.describe();
  EXPECT_GE(report.retryable(), 49u);
  EXPECT_EQ(report.ok() + report.retryable(), 50u);
  EXPECT_TRUE(stack.front->stats().conserved());
}

TEST(Loadgen, MixedModelTrafficSplitsByWeightAndConserves) {
  Stack stack;
  // A second model joins the running server, so the stack serves two
  // lanes through one wire endpoint.
  auto other = std::make_shared<MockEngine>();
  other->activate(model::ModelArtifact::compile(
      "other", "1",
      spn::make_random_spn([] {
        spn::RandomSpnConfig config;
        config.variables = engine_test::kFeatures;
        config.seed = 99;
        return config;
      }()),
      arith::make_float64_backend()));
  stack.server->register_engine(other);

  LoadgenConfig config;
  config.port = stack.front->port();
  config.traffic.push_back(
      {"mock@1", 3.0, {make_request(1, 1), make_request(2, 9)}, {}});
  config.traffic.push_back({"other@1", 1.0, {make_request(1, 30)}, {}});
  config.request_count = 200;
  config.rate_rps = 20'000.0;
  config.connections = 2;
  config.seed = 5;

  const LoadgenReport report = run_loadgen(config);
  EXPECT_EQ(report.sent, 200u);
  EXPECT_EQ(report.ok(), 200u);
  EXPECT_TRUE(report.conserved()) << report.describe();

  // Per-model accounting sums to the total and tracks the 3:1 mix.
  ASSERT_EQ(report.sent_by_model.size(), 2u);
  const std::uint64_t hot = report.sent_by_model.at("mock@1");
  const std::uint64_t cold = report.sent_by_model.at("other@1");
  EXPECT_EQ(hot + cold, report.sent);
  EXPECT_GT(hot, cold);

  // The server saw exactly the same split, lane by lane.
  const engine::ServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.per_model.at("mock@1").requests, hot);
  EXPECT_EQ(stats.per_model.at("other@1").requests, cold);
  EXPECT_TRUE(stack.front->stats().conserved());
}

TEST(Loadgen, ShutdownAfterRunSignalsTheServer) {
  Stack stack;
  LoadgenConfig config;
  config.port = stack.front->port();
  config.payloads = {make_request(1, 2)};
  config.request_count = 10;
  config.rate_rps = 10'000.0;
  config.arrival = ArrivalProcess::kFixed;
  config.shutdown_server_after = true;

  const LoadgenReport report = run_loadgen(config);
  EXPECT_EQ(report.ok(), 10u);
  stack.front->wait_for_shutdown_request();
  EXPECT_TRUE(stack.front->shutdown_requested());
}

}  // namespace
}  // namespace spnhbm::rpc
