#include "spnhbm/baselines/cpu_engine.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "spnhbm/compiler/op_program.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::baselines {

CpuInferenceEngine::CpuInferenceEngine(const compiler::DatapathModule& module,
                                       std::size_t threads)
    : module_(module),
      f64_(arith::make_float64_backend()),
      pool_(std::make_unique<ThreadPool>(threads)) {}

void CpuInferenceEngine::infer(std::span<const std::uint8_t> samples,
                               std::span<double> results) {
  const std::size_t features = module_.input_features();
  SPNHBM_REQUIRE(features > 0 && samples.size() == results.size() * features,
                 "samples/results size mismatch");
  if (results.empty()) return;
  const compiler::OpProgram& program = module_.program(*f64_);
  // Chunk on lane boundaries so lane groups never straddle threads.
  constexpr std::size_t kLanes = compiler::OpProgram::kLanes;
  const std::size_t lane_groups = (results.size() + kLanes - 1) / kLanes;
  pool_->parallel_for(lane_groups, [&](std::size_t group_begin,
                                       std::size_t group_end) {
    const std::size_t begin = group_begin * kLanes;
    const std::size_t end = std::min(group_end * kLanes, results.size());
    program.evaluate(
        samples.subspan(begin * features, (end - begin) * features),
        results.subspan(begin, end - begin));
  });
}

double CpuInferenceEngine::measure_throughput(std::size_t sample_count,
                                              std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t features = module_.input_features();
  std::vector<std::uint8_t> samples(sample_count * features);
  // Bytes every lookup table covers (the lookup range check would throw
  // on a byte past a narrow input domain).
  std::size_t domain = 256;
  for (const auto& table : module_.tables()) {
    domain = std::min(domain, table.probability_by_byte.size());
  }
  for (auto& byte : samples) {
    byte = static_cast<std::uint8_t>(rng.next_below(domain));
  }
  std::vector<double> results(sample_count);
  const auto start = std::chrono::steady_clock::now();
  infer(samples, results);
  const auto stop = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(sample_count) / seconds;
}

}  // namespace spnhbm::baselines
