// Self-healing serving demo: a deterministic fault plan knocks out the
// FPGA engine's first six submits, and the serving layer rides through it
// — failed batches retry and fail over to the CPU engine, the FPGA engine
// is quarantined after consecutive failures, circuit-breaker probes keep
// testing it at growing intervals, and the first successful probe
// readmits it. The recovery timeline is printed as it happens, and every
// request still resolves with the correct probability.
//
//   ./build/examples/chaos_serving
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "spnhbm/engine/chaos_engine.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/fault/fault.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

int main() {
  using namespace spnhbm;
  using Clock = std::chrono::steady_clock;
  const std::size_t variables = 10;
  const std::size_t samples_per_request = 8;

  const auto model = workload::make_nips_model(variables);
  const engine::ModelHandle nips = spnhbm::model::ModelArtifact::compile(
      model.name, "1", model.spn, arith::make_float64_backend());

  // Both engines behind the ChaosEngine decorator, so the fault plan can
  // target them by name at the engine.submit site.
  auto fpga = std::make_shared<engine::ChaosEngine>(
      std::make_unique<engine::FpgaSimEngine>(nips));
  auto cpu = std::make_shared<engine::ChaosEngine>(
      std::make_unique<engine::CpuEngine>(nips));
  const std::string fpga_name = fpga->capabilities().name;

  // The scripted outage: the FPGA engine rejects its first six submits
  // (ops 0..5), then recovers. Everything else is healthy.
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultRule outage;
  outage.site = "engine.submit";
  outage.instance = fpga_name;
  outage.kind = fault::FaultKind::kFail;
  outage.has_window = true;
  outage.from = 0;
  outage.until = 6;
  plan.rules.push_back(outage);
  fault::ScopedFaultPlan armed(plan);

  engine::ServerConfig config;
  config.batch_samples = samples_per_request;
  config.policy = engine::DispatchPolicy::kRoundRobin;
  config.retry.max_attempts = 2;  // one retry, preferring the other engine
  config.retry.backoff_base = std::chrono::microseconds(100);
  config.health.degraded_after = 1;
  config.health.quarantine_after = 2;
  config.health.probe_interval = std::chrono::milliseconds(6);
  config.health.probe_backoff_multiplier = 1.5;
  config.health.probe_interval_cap = std::chrono::milliseconds(20);
  engine::InferenceServer server(config);
  server.register_engine(fpga, /*priority=*/0);
  server.register_engine(cpu, /*priority=*/0);
  server.start();

  std::printf("chaos plan: %s fails engine.submit ops [0, 6)\n\n",
              fpga_name.c_str());

  // Client side: a paced stream of requests, while we watch the health
  // state machine and print every transition as a timeline.
  workload::CorpusConfig corpus;
  corpus.vocabulary = variables;
  corpus.documents = 1024;
  corpus.seed = 99;
  const auto docs = workload::make_bag_of_words(corpus).to_bytes();

  const auto t0 = Clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  std::array<engine::EngineHealth, 2> last_health = {
      engine::EngineHealth::kHealthy, engine::EngineHealth::kHealthy};
  const auto poll_health = [&] {
    for (std::size_t i = 0; i < server.engine_count(); ++i) {
      const engine::EngineHealth health = server.engine_health(i);
      if (health != last_health[i]) {
        std::printf("[%7.1f ms] %-16s %s -> %s\n", elapsed_ms(),
                    server.engine(i).capabilities().name.c_str(),
                    engine::to_string(last_health[i]).c_str(),
                    engine::to_string(health).c_str());
        last_health[i] = health;
      }
    }
  };

  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < 60; ++r) {
    if ((cursor + samples_per_request) * variables > docs.size()) cursor = 0;
    requests.emplace_back(
        docs.begin() + static_cast<std::ptrdiff_t>(cursor * variables),
        docs.begin() +
            static_cast<std::ptrdiff_t>((cursor + samples_per_request) *
                                        variables));
    cursor += samples_per_request;
    futures.push_back(server.submit(requests.back()));
    poll_health();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Keep polling until the engine is readmitted (bounded wait).
  for (int i = 0; i < 200 && last_health[0] != engine::EngineHealth::kHealthy;
       ++i) {
    poll_health();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& future : futures) future.wait();
  poll_health();
  server.stop();

  // Every request resolved with the reference probabilities despite the
  // outage: transient faults never reach the client.
  spn::Evaluator reference(model.spn);
  std::size_t checked = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto results = futures[r].get();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const double want = reference.evaluate_bytes(
          std::span<const std::uint8_t>(requests[r])
              .subspan(i * variables, variables));
      // Engine results agree with the reference within a few ulps (same
      // operator program, different evaluation order).
      if (std::abs(results[i] - want) >
          1e-12 * std::max(std::abs(want), 1e-300)) {
        std::printf("MISMATCH request %zu sample %zu\n", r, i);
        return 1;
      }
      ++checked;
    }
  }

  const engine::ServerStats stats = server.stats();
  std::printf("\n%zu samples verified against the reference evaluator\n",
              checked);
  std::printf("server: %s\n", stats.describe().c_str());
  std::printf("faults injected: %llu\n",
              static_cast<unsigned long long>(fault::injector().injected()));
  if (stats.failed_requests != 0 || stats.readmissions == 0) {
    std::printf("unexpected recovery outcome\n");
    return 1;
  }
  return 0;
}
