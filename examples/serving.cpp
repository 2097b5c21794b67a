// Multi-backend serving demo: the InferenceServer shards a stream of
// small, independent inference requests across three heterogeneous
// backends — the simulated HBM FPGA card, the native CPU engine and the
// analytic V100 model — through the one InferenceEngine interface.
//
// The server coalesces the requests into block-sized batches (dynamic
// batching with a max-latency flush), dispatches by least expected
// completion time, and applies backpressure when the queue bound is hit.
// Every result is checked against the reference evaluator at the end.
//
//   ./build/examples/serving
#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/gpu_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

int main() {
  using namespace spnhbm;
  const std::size_t variables = 10;

  // The served model: LearnSPN on the synthetic NIPS corpus, compiled once
  // in float64 so all three backends produce comparable probabilities.
  const auto model = workload::make_nips_model(variables);
  const engine::ModelHandle nips = spnhbm::model::ModelArtifact::compile(
      model.name, "1", model.spn, arith::make_float64_backend());

  engine::ServerConfig config;
  config.batch_samples = 256;
  config.max_latency = std::chrono::microseconds(500);
  config.max_queue_samples = 1 << 14;
  config.policy = engine::DispatchPolicy::kLeastLoaded;
  engine::InferenceServer server(config);
  server.register_engine(std::make_shared<engine::FpgaSimEngine>(nips));
  server.register_engine(std::make_shared<engine::CpuEngine>(nips));
  server.register_engine(std::make_shared<engine::GpuModelEngine>(nips));
  server.start();

  // Client side: 200 requests of 1..32 in-distribution documents each.
  workload::CorpusConfig corpus;
  corpus.vocabulary = variables;
  corpus.documents = 1024;
  corpus.seed = 99;
  const auto docs = workload::make_bag_of_words(corpus).to_bytes();
  Rng rng(17);
  std::vector<std::vector<std::uint8_t>> requests;
  std::size_t cursor = 0;
  while (requests.size() < 200) {
    const std::size_t count = 1 + rng.next_below(32);
    if ((cursor + count) * variables > docs.size()) {
      cursor = 0;
      continue;
    }
    requests.emplace_back(docs.begin() + cursor * variables,
                          docs.begin() + (cursor + count) * variables);
    cursor += count;
  }

  std::vector<std::future<std::vector<double>>> futures;
  futures.reserve(requests.size());
  for (const auto& request : requests) futures.push_back(server.submit(request));

  // Verify every request's probabilities against the reference evaluator.
  spn::Evaluator reference(model.spn);
  std::size_t checked = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto results = futures[r].get();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const double want = reference.evaluate_bytes(
          std::span<const std::uint8_t>(requests[r])
              .subspan(i * variables, variables));
      if (want > 0.0 &&
          std::abs(results[i] / want - 1.0) > 1e-9) {
        std::printf("MISMATCH request %zu sample %zu: %g vs %g\n", r, i,
                    results[i], want);
        return 1;
      }
      ++checked;
    }
  }
  server.stop();

  std::printf("served %zu requests (%zu samples), all verified\n",
              requests.size(), checked);
  std::printf("server: %s\n", server.stats().describe().c_str());
  for (std::size_t i = 0; i < server.engine_count(); ++i) {
    std::printf("  %-28s %s\n", server.engine(i).capabilities().name.c_str(),
                server.engine(i).stats().describe().c_str());
  }
  return 0;
}
