#include "spnhbm/engine/cpu_engine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "spnhbm/compiler/op_program.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::engine {

namespace {
std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

CpuEngine::CpuEngine(ModelHandle model, CpuEngineConfig config)
    : model_(std::move(model)),
      f64_(arith::make_float64_backend()),
      pool_(resolve_threads(config.threads)) {
  SPNHBM_REQUIRE(model_ != nullptr, "CpuEngine requires a model");
  refresh_capabilities();
}

void CpuEngine::refresh_capabilities() {
  capabilities_.name = strformat("cpu-native x%zu", threads());
  capabilities_.input_features = model_->module().input_features();
  capabilities_.functional = true;
  // Unknown until measured: the host's real speed depends on the machine.
  capabilities_.nominal_throughput = 0.0;
  // Big enough to amortise thread-pool dispatch, small enough to keep the
  // struct-of-arrays working set in cache.
  capabilities_.preferred_batch_samples = 8192;
}

void CpuEngine::activate(ModelHandle next) {
  SPNHBM_REQUIRE(next != nullptr, "activate requires a model");
  SPNHBM_REQUIRE(pending_.empty(), "activate with batches in flight");
  model_ = std::move(next);
  refresh_capabilities();
  stats_.reconfigurations += 1;  // host-side swap: no device time charged
}

double CpuEngine::evaluate(std::span<const std::uint8_t> samples,
                           std::span<double> results) {
  const auto start = std::chrono::steady_clock::now();
  if (!results.empty()) {
    const std::size_t features = capabilities_.input_features;
    const compiler::OpProgram& program = model_->module().program(*f64_);
    // Chunk on lane boundaries so lane groups never straddle threads.
    constexpr std::size_t kLanes = compiler::OpProgram::kLanes;
    const std::size_t lane_groups = (results.size() + kLanes - 1) / kLanes;
    pool_.parallel_for(lane_groups, [&](std::size_t group_begin,
                                        std::size_t group_end) {
      const std::size_t begin = group_begin * kLanes;
      const std::size_t end = std::min(group_end * kLanes, results.size());
      program.evaluate(
          samples.subspan(begin * features, (end - begin) * features),
          results.subspan(begin, end - begin));
    });
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

BatchHandle CpuEngine::submit(std::span<const std::uint8_t> samples,
                              std::span<double> results) {
  const std::size_t count = check_batch(samples, results);
  const BatchHandle handle = next_handle_++;
  pending_.emplace(handle, std::async(std::launch::async, [this, samples,
                                                           results] {
                     return evaluate(samples, results);
                   }));
  stats_.batches += 1;
  stats_.samples += count;
  return handle;
}

BatchHandle CpuEngine::submit_sparse(std::span<const std::uint8_t> stream,
                                     std::size_t sample_count,
                                     std::span<double> results) {
  check_sparse_batch(sample_count, results);
  const auto& module = model_->module();
  // Densify up front (the helper thread owns the buffer) and reuse the
  // dense vectorised kernel.
  auto rows = std::make_shared<std::vector<std::uint8_t>>(
      compiler::decode_sparse(stream, module.input_features(), sample_count)
          .densify(module.default_evidence()));
  const BatchHandle handle = next_handle_++;
  pending_.emplace(handle,
                   std::async(std::launch::async, [this, rows, results] {
                     return evaluate(*rows, results);
                   }));
  stats_.batches += 1;
  stats_.samples += sample_count;
  return handle;
}

void CpuEngine::wait(BatchHandle handle) {
  const auto it = pending_.find(handle);
  SPNHBM_REQUIRE(it != pending_.end(),
                 "wait on unknown or already-completed batch handle");
  const double batch_seconds = it->second.get();
  stats_.busy_seconds += batch_seconds;
  batch_latency_us_.record(batch_seconds * 1e6);
  pending_.erase(it);
}

double CpuEngine::measure_throughput(std::uint64_t sample_count) {
  const auto& module = model_->module();
  const std::size_t features = module.input_features();
  Rng rng(1);
  std::vector<std::uint8_t> samples(sample_count * features);
  // Bytes every lookup table covers (the lookup range check would throw
  // on a byte past a narrow input domain).
  std::size_t domain = 256;
  for (const auto& table : module.tables()) {
    domain = std::min(domain, table.probability_by_byte.size());
  }
  for (auto& byte : samples) {
    byte = static_cast<std::uint8_t>(rng.next_below(domain));
  }
  std::vector<double> results(sample_count);
  const double seconds = evaluate(samples, results);
  stats_.batches += 1;
  stats_.samples += sample_count;
  stats_.busy_seconds += seconds;
  return static_cast<double>(sample_count) / seconds;
}

}  // namespace spnhbm::engine
