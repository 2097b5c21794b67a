// The fleet: replicas placed across N simulated devices, every tenant
// engine registered in the fleet's one InferenceServer, its books and
// queue bound covering the whole fleet, quarantined replicas readmitted by
// the fleet's own traffic, and the telemetry-driven rebalancer scaling hot
// models up and cold models down.
#include "spnhbm/fleet/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "spnhbm/fault/fault.hpp"
#include "spnhbm/fpga/resource_model.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm {
namespace {

model::ModelHandle nips_artifact(std::size_t variables,
                                 std::string version = "1") {
  auto model = workload::make_nips_model(variables);
  return model::ModelArtifact::compile(model.name, std::move(version),
                                       std::move(model.spn),
                                       arith::make_float64_backend());
}

std::vector<std::uint8_t> random_rows(Rng& rng, std::size_t rows,
                                      std::size_t features) {
  std::vector<std::uint8_t> samples(rows * features);
  for (auto& byte : samples) {
    byte = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return samples;
}

fleet::FleetConfig quick_fleet(std::size_t devices) {
  fleet::FleetConfig config;
  config.devices = devices;
  config.server.batch_samples = 8;
  config.server.max_latency = std::chrono::microseconds(200);
  return config;
}

void expect_reference(const model::ModelHandle& artifact,
                      const std::vector<std::uint8_t>& samples,
                      const std::vector<double>& results) {
  const std::size_t features = artifact->input_features();
  ASSERT_EQ(results.size(), samples.size() / features);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double want = artifact->module().evaluate(
        artifact->backend(),
        std::span<const std::uint8_t>(samples).subspan(i * features,
                                                       features));
    EXPECT_DOUBLE_EQ(results[i], want) << "sample " << i;
  }
}

TEST(FleetRouter, RoutesMixedTrafficAcrossDevicesAndConserves) {
  auto nips10 = nips_artifact(10);
  auto nips20 = nips_artifact(20);
  fleet::FleetRouter router(quick_fleet(2));

  // Two replicas of NIPS10 land on different devices (least-loaded
  // placement); NIPS20 gets one.
  const auto r0 = router.deploy(nips10);
  const auto r1 = router.deploy(nips10);
  EXPECT_NE(r0.member, r1.member);
  router.deploy(nips20);
  EXPECT_EQ(router.replica_count("NIPS10@1"), 2u);
  EXPECT_EQ(router.served_models(),
            (std::vector<std::string>{"NIPS10@1", "NIPS20@1"}));
  EXPECT_EQ(router.input_features("NIPS10"), 10u);
  EXPECT_EQ(router.input_features("NIPS20@1"), 20u);

  router.start();
  Rng rng(23);
  std::vector<std::pair<model::ModelHandle, std::vector<std::uint8_t>>> sent;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t r = 0; r < 16; ++r) {
    const auto& artifact = r % 3 == 0 ? nips20 : nips10;
    auto samples = random_rows(rng, 2, artifact->input_features());
    auto future = router.try_submit(artifact->id(), samples);
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
    sent.emplace_back(artifact, std::move(samples));
  }
  for (std::size_t r = 0; r < sent.size(); ++r) {
    expect_reference(sent[r].first, sent[r].second, futures[r].get());
  }
  router.stop();

  // One server holds every tenant, labelled "<device>/<partition>", and
  // its books count every request the fleet accepted.
  engine::InferenceServer& server = router.server();
  EXPECT_EQ(server.engine_count(), 3u);
  EXPECT_EQ(server.engine_device(r0.engine_index),
            router.device(r0.member).name() + "/" + r0.partition);
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_EQ(stats.samples, 32u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed_requests, 0u);
  // Both NIPS10 replicas saw traffic: the lane's round-robin spreads it,
  // however the NIPS20 batches interleave.
  EXPECT_GT(server.dispatched_samples(r0.engine_index), 0u);
  EXPECT_GT(server.dispatched_samples(r1.engine_index), 0u);
}

TEST(FleetRouter, OneQueueBoundCoversTheWholeFleet) {
  auto nips10 = nips_artifact(10);
  auto config = quick_fleet(2);
  config.server.max_queue_samples = 4;
  fleet::FleetRouter router(config);
  router.deploy(nips10);
  router.deploy(nips10);

  // Before start() nothing drains, so admission is deterministic: the
  // first request fills the fleet's bound, and the second is rejected
  // although the other device hosts an idle replica.
  Rng rng(31);
  const auto first = random_rows(rng, 4, 10);
  auto accepted = router.try_submit("NIPS10@1", first);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_FALSE(router.try_submit("NIPS10@1", random_rows(rng, 1, 10)));
  EXPECT_EQ(router.outstanding_samples(), 4u);
  EXPECT_EQ(router.server().stats().rejected, 1u);

  router.start();
  expect_reference(nips10, first, accepted->get());
  router.stop();
}

TEST(FleetRouter, QuarantinedReplicaIsReadmittedByFleetTraffic) {
  auto nips10 = nips_artifact(10);
  auto config = quick_fleet(2);
  // A quarantined engine's probe is due at once, so the test needs no
  // sleeps: the next batch of its lane is the probe.
  config.server.health.probe_interval = std::chrono::microseconds(0);
  fleet::FleetRouter router(config);
  const auto r0 = router.deploy(nips10);
  const auto r1 = router.deploy(nips10);
  ASSERT_NE(r0.member, r1.member);
  engine::InferenceServer& server = router.server();
  router.start();

  Rng rng(53);
  const auto serve_one = [&] {
    const auto samples = random_rows(rng, 2, 10);
    auto future = router.try_submit("NIPS10@1", samples);
    ASSERT_TRUE(future.has_value());
    expect_reference(nips10, samples, future->get());
  };
  {
    // Replica 0 fails every submit; its batches fail over to replica 1
    // until the health machine quarantines it. A failure is booked
    // before the retry that resolves the request, so health is current
    // once the future is.
    fault::FaultPlan plan;
    fault::FaultRule rule;
    rule.site = "engine.submit";
    rule.instance = server.engine(r0.engine_index).capabilities().name;
    rule.every = 1;
    plan.rules.push_back(rule);
    fault::ScopedFaultPlan armed(plan);
    for (int r = 0; r < 64 && server.engine_health(r0.engine_index) !=
                                   engine::EngineHealth::kQuarantined;
         ++r) {
      serve_one();
    }
    ASSERT_EQ(server.engine_health(r0.engine_index),
              engine::EngineHealth::kQuarantined);
  }

  // Disarmed: the fleet's own traffic carries the probe that readmits
  // replica 0, and the lane spreads over both devices again.
  const std::uint64_t before = server.dispatched_samples(r0.engine_index);
  for (int r = 0; r < 16; ++r) serve_one();
  router.stop();

  EXPECT_EQ(server.engine_health(r0.engine_index),
            engine::EngineHealth::kHealthy);
  EXPECT_GT(server.dispatched_samples(r0.engine_index), before);
  const auto stats = server.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_GE(stats.probes, 1u);
  EXPECT_EQ(stats.readmissions, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);
}

TEST(FleetRouter, RebalanceScalesHotModelsUpAndColdModelsDown) {
  auto hot = nips_artifact(10);
  auto cold = nips_artifact(20);
  fleet::FleetRouter router(quick_fleet(2));
  router.deploy(hot);
  router.deploy(cold);
  router.deploy(cold);
  EXPECT_EQ(router.replica_count("NIPS20@1"), 2u);
  router.start();

  // Skewed traffic: the hot model takes ~94% of the samples.
  Rng rng(41);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 15; ++r) {
    auto future = router.try_submit("NIPS10@1", random_rows(rng, 2, 10));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }
  auto cold_future = router.try_submit("NIPS20@1", random_rows(rng, 2, 20));
  ASSERT_TRUE(cold_future.has_value());
  futures.push_back(std::move(*cold_future));
  for (auto& future : futures) future.get();  // drain before rebalancing

  fleet::RebalancePolicy policy;
  policy.hot_share = 0.6;
  policy.cold_share = 0.1;
  const auto report = router.rebalance(policy);
  EXPECT_TRUE(report.changed());
  EXPECT_EQ(report.scaled_up, (std::vector<std::string>{"NIPS10@1"}));
  EXPECT_EQ(report.scaled_down, (std::vector<std::string>{"NIPS20@1"}));
  EXPECT_EQ(report.sample_deltas.at("NIPS10@1"), 30u);
  EXPECT_EQ(report.sample_deltas.at("NIPS20@1"), 2u);
  EXPECT_EQ(router.replica_count("NIPS10@1"), 2u);
  EXPECT_EQ(router.replica_count("NIPS20@1"), 1u);

  // A quiet fleet is steady state: deltas were re-baselined, so a pass
  // with no new traffic changes nothing.
  const auto steady = router.rebalance(policy);
  EXPECT_FALSE(steady.changed());

  // The new replica serves: more hot traffic resolves correctly.
  std::vector<std::vector<std::uint8_t>> samples;
  std::vector<std::future<std::vector<double>>> more;
  for (int r = 0; r < 6; ++r) {
    samples.push_back(random_rows(rng, 2, 10));
    auto future = router.try_submit("NIPS10", samples.back());
    ASSERT_TRUE(future.has_value());
    more.push_back(std::move(*future));
  }
  for (std::size_t r = 0; r < more.size(); ++r) {
    expect_reference(hot, samples[r], more[r].get());
  }
  router.stop();

  const auto stats = router.stats();
  EXPECT_EQ(stats.deployments, 4u);
  EXPECT_EQ(stats.undeployments, 1u);
  // The retired replica's slot stays in the server, marked retired.
  EXPECT_EQ(router.server().engine_count(), 4u);
  EXPECT_EQ(router.server().stats().requests, 22u);
  EXPECT_EQ(router.server().stats().failed_requests, 0u);
}

TEST(FleetRouter, PlacementDeficitsPropagateAndLeaveTheFleetUnchanged) {
  fleet::FleetRouter router(quick_fleet(2));
  auto nips10 = nips_artifact(10);
  // Fill both devices' PE budgets completely.
  router.deploy(nips10, 8);
  router.deploy(nips_artifact(10, "2"), 8);
  EXPECT_EQ(router.device(0).free_pe_slots(), 0);
  EXPECT_EQ(router.device(1).free_pe_slots(), 0);

  try {
    router.deploy(nips_artifact(10, "3"), 2);
    FAIL() << "expected PlacementDeficitError";
  } catch (const fpga::PlacementDeficitError& error) {
    EXPECT_NE(std::string(error.what()).find("PE slots"), std::string::npos);
  }
  EXPECT_EQ(router.replica_count("NIPS10@3"), 0u);
  EXPECT_EQ(router.served_models(),
            (std::vector<std::string>{"NIPS10@1", "NIPS10@2"}));

  // Undeploy frees the slots; the next deploy fits again.
  router.undeploy_one("NIPS10@2");
  EXPECT_EQ(router.device(router.deploy(nips_artifact(10, "3"), 2).member)
                .free_pe_slots(),
            6);
}

TEST(FleetRouter, ValidatesModelReferences) {
  fleet::FleetRouter router(quick_fleet(1));
  auto v1 = nips_artifact(10, "1");
  auto v2 = nips_artifact(10, "2");
  router.deploy(v1);
  EXPECT_THROW(router.try_submit("absent", {}), RuntimeApiError);
  EXPECT_THROW(router.input_features("absent"), RuntimeApiError);
  EXPECT_THROW(router.undeploy_one("absent"), RuntimeApiError);

  // A bare name shared by two versions is ambiguous.
  router.deploy(v2);
  EXPECT_THROW(router.try_submit("NIPS10", {}), RuntimeApiError);
  EXPECT_EQ(router.replica_count("NIPS10@2"), 1u);
  router.undeploy_one("NIPS10@2");
  EXPECT_EQ(router.replica_count("NIPS10@2"), 0u);
}

}  // namespace
}  // namespace spnhbm
