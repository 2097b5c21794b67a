// Chaos acceptance tests (robustness tentpole): a fixed-seed fault plan
// over the full stack — ChaosEngine-wrapped FPGA simulation plus a CPU
// fallback behind the self-healing InferenceServer — must (1) produce
// results identical to the fault-free run, because every injected fault
// is transient and absorbed by retry/failover, (2) reproduce the exact
// same injected-fault sequence per (site, instance) when run twice with
// the same seed, and (3) leave the substrate byte-identical when the
// injector is disarmed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spnhbm/engine/chaos_engine.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/fault/fault.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm {
namespace {

constexpr std::size_t kVariables = 10;
constexpr std::size_t kRequests = 8;
constexpr std::size_t kSamplesPerRequest = 8;

std::vector<std::uint8_t> make_documents(std::size_t count,
                                         std::uint64_t seed) {
  workload::CorpusConfig corpus;
  corpus.vocabulary = kVariables;
  corpus.documents = count;
  corpus.seed = seed;
  return workload::make_bag_of_words(corpus).to_bytes();
}

/// The served model, compiled in float64 so both engines agree exactly.
engine::ModelHandle nips_model() {
  return model::ModelArtifact::compile(
      "nips10", "1", workload::make_nips_model(kVariables).spn,
      arith::make_float64_backend());
}

struct ChaosRun {
  std::vector<std::vector<double>> results;
  /// Injected-fault sequence per (site, instance): the determinism witness.
  std::map<std::pair<std::string, std::string>,
           std::vector<std::pair<std::uint64_t, fault::FaultKind>>>
      log;
  engine::ServerStats stats;
};

/// One full serving run. When `plan` is set it is armed for the duration;
/// requests are queued before start() so batch formation is deterministic.
ChaosRun run_serving(const std::optional<fault::FaultPlan>& plan) {
  const engine::ModelHandle nips = nips_model();
  auto fpga = std::make_shared<engine::ChaosEngine>(
      std::make_unique<engine::FpgaSimEngine>(nips));
  auto cpu = std::make_shared<engine::ChaosEngine>(
      std::make_unique<engine::CpuEngine>(nips));

  std::unique_ptr<fault::ScopedFaultPlan> armed;
  if (plan.has_value()) {
    armed = std::make_unique<fault::ScopedFaultPlan>(*plan);
  }

  engine::ServerConfig config;
  config.batch_samples = kSamplesPerRequest;
  config.policy = engine::DispatchPolicy::kRoundRobin;
  config.retry.backoff_base = std::chrono::microseconds(50);
  // Transient-only plans must never quarantine an engine mid-run: that
  // would make batch placement depend on wall-clock probe timing.
  config.health.quarantine_after = 100;
  // Same priority tier: a failed FPGA batch can fail over to the CPU
  // engine (retry prefers a different engine within the dispatch tier).
  engine::InferenceServer server(config);
  server.register_engine(fpga, /*priority=*/0);
  server.register_engine(cpu, /*priority=*/0);

  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t r = 0; r < kRequests; ++r) {
    requests.push_back(make_documents(kSamplesPerRequest, 1000 + r));
    futures.push_back(server.submit(requests[r]));
  }
  server.start();
  server.stop();

  ChaosRun run;
  for (auto& future : futures) run.results.push_back(future.get());
  if (plan.has_value()) {
    for (const fault::InjectedFault& entry : fault::injector().log()) {
      run.log[{entry.site, entry.instance}].push_back(
          {entry.op_index, entry.kind});
    }
  }
  run.stats = server.stats();
  return run;
}

fault::FaultPlan transient_plan(const std::string& fpga_name) {
  // Every rule is transient: failed submits retry/fail over, stalls only
  // cost time. A fault-free run must therefore produce identical results.
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultRule submit_fail;
  submit_fail.site = "engine.submit";
  submit_fail.instance = fpga_name;
  submit_fail.kind = fault::FaultKind::kFail;
  submit_fail.has_window = true;
  submit_fail.from = 0;
  submit_fail.until = 2;
  plan.rules.push_back(submit_fail);

  fault::FaultRule hbm_stall;
  hbm_stall.site = "hbm.access";
  hbm_stall.kind = fault::FaultKind::kStall;
  hbm_stall.every = 5;
  hbm_stall.duration_us = 20.0;
  plan.rules.push_back(hbm_stall);

  fault::FaultRule dma_stall;
  dma_stall.site = "pcie.dma";
  dma_stall.kind = fault::FaultKind::kStall;
  dma_stall.every = 3;
  dma_stall.duration_us = 50.0;
  plan.rules.push_back(dma_stall);
  return plan;
}

TEST(ChaosServing, TransientFaultsAreAbsorbedAndResultsMatchFaultFree) {
  const ChaosRun baseline = run_serving(std::nullopt);
  EXPECT_TRUE(baseline.log.empty());
  EXPECT_EQ(baseline.stats.batch_retries, 0u);

  const std::string fpga_name =
      engine::FpgaSimEngine(nips_model()).capabilities().name;

  const ChaosRun chaos = run_serving(transient_plan(fpga_name));

  // The first two FPGA submits were injected to fail...
  const auto it = chaos.log.find({std::string("engine.submit"), fpga_name});
  ASSERT_NE(it, chaos.log.end());
  EXPECT_EQ(it->second.size(), 2u);
  EXPECT_GE(chaos.stats.batch_retries, 2u);
  EXPECT_GE(chaos.stats.failovers, 2u);
  EXPECT_EQ(chaos.stats.failed_requests, 0u);
  EXPECT_EQ(chaos.stats.deadline_expirations, 0u);

  // ...and despite the chaos, every request resolves with exactly the
  // fault-free probabilities.
  ASSERT_EQ(chaos.results.size(), baseline.results.size());
  for (std::size_t r = 0; r < baseline.results.size(); ++r) {
    ASSERT_EQ(chaos.results[r].size(), baseline.results[r].size());
    for (std::size_t i = 0; i < baseline.results[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(chaos.results[r][i], baseline.results[r][i])
          << "request " << r << " sample " << i;
    }
  }
}

TEST(ChaosServing, SameSeedReproducesTheExactFaultSequence) {
  const std::string fpga_name =
      engine::FpgaSimEngine(nips_model()).capabilities().name;
  const fault::FaultPlan plan = transient_plan(fpga_name);

  const ChaosRun first = run_serving(plan);
  const ChaosRun second = run_serving(plan);

  // Identical per-(site, instance) injection sequences: same ops, same
  // kinds, in the same order.
  EXPECT_EQ(first.log, second.log);
  EXPECT_FALSE(first.log.empty());
  // And identical results.
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t r = 0; r < first.results.size(); ++r) {
    EXPECT_EQ(first.results[r], second.results[r]) << "request " << r;
  }
}

TEST(ChaosServing, DisarmedInjectorLeavesTheSubstrateUntouched) {
  // The byte-identical guarantee behind the figure benchmarks: with the
  // injector disarmed, two timed FPGA simulation runs of the same
  // workload agree exactly — results and virtual time — with the fault
  // framework compiled in.
  fault::injector().disarm();
  const std::uint64_t injected_before = fault::injector().injected();
  const engine::ModelHandle nips = nips_model();
  const auto samples = make_documents(64, 7);

  engine::FpgaSimEngine first(nips);
  engine::FpgaSimEngine second(nips);
  EXPECT_EQ(first.infer(samples), second.infer(samples));
  EXPECT_DOUBLE_EQ(first.measure_throughput(100'000),
                   second.measure_throughput(100'000));
  EXPECT_EQ(fault::injector().injected(), injected_before);
}

}  // namespace
}  // namespace spnhbm
