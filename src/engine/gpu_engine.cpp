#include "spnhbm/engine/gpu_engine.hpp"

#include <utility>

#include "spnhbm/compiler/op_program.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"

namespace spnhbm::engine {

GpuModelEngine::GpuModelEngine(ModelHandle artifact, gpu::GpuModelConfig config)
    : artifact_(std::move(artifact)),
      model_(std::move(config)),
      f64_(arith::make_float64_backend()) {
  SPNHBM_REQUIRE(artifact_ != nullptr, "GpuModelEngine requires a model");
  refresh_capabilities();
}

void GpuModelEngine::refresh_capabilities() {
  capabilities_.name = "gpu-model/" + model_.config().name;
  capabilities_.input_features = artifact_->module().input_features();
  capabilities_.functional = true;
  capabilities_.nominal_throughput = model_.throughput(artifact_->module());
  capabilities_.preferred_batch_samples =
      static_cast<std::size_t>(model_.config().batch_samples);
}

void GpuModelEngine::activate(ModelHandle next) {
  SPNHBM_REQUIRE(next != nullptr, "activate requires a model");
  SPNHBM_REQUIRE(last_completed_ + 1 == next_handle_,
                 "activate with batches in flight");
  artifact_ = std::move(next);
  refresh_capabilities();
  stats_.reconfigurations += 1;  // host-side swap: no device time charged
}

BatchHandle GpuModelEngine::submit(std::span<const std::uint8_t> samples,
                                   std::span<double> results) {
  const std::size_t count = check_batch(samples, results);
  const compiler::DatapathModule& module = artifact_->module();
  module.program(*f64_).evaluate(samples, results);
  stats_.batches += 1;
  stats_.samples += count;
  const double batch_seconds =
      to_seconds(model_.batch_breakdown(module, count).total());
  stats_.busy_seconds += batch_seconds;
  batch_latency_us_.record(batch_seconds * 1e6);
  return next_handle_++;
}

BatchHandle GpuModelEngine::submit_sparse(std::span<const std::uint8_t> stream,
                                          std::size_t sample_count,
                                          std::span<double> results) {
  check_sparse_batch(sample_count, results);
  const compiler::DatapathModule& module = artifact_->module();
  module.program(*f64_).evaluate(
      compiler::decode_sparse(stream, module.input_features(), sample_count),
      results);
  stats_.batches += 1;
  stats_.samples += sample_count;
  const double batch_seconds =
      to_seconds(model_.batch_breakdown(module, sample_count).total());
  stats_.busy_seconds += batch_seconds;
  batch_latency_us_.record(batch_seconds * 1e6);
  return next_handle_++;
}

void GpuModelEngine::wait(BatchHandle handle) {
  SPNHBM_REQUIRE(handle > last_completed_ && handle < next_handle_,
                 "wait on unknown or already-completed batch handle");
  last_completed_ = handle;
}

double GpuModelEngine::measure_throughput(std::uint64_t sample_count) {
  const double rate = model_.throughput(artifact_->module(), sample_count);
  stats_.batches += 1;
  stats_.samples += sample_count;
  stats_.busy_seconds += static_cast<double>(sample_count) / rate;
  return rate;
}

}  // namespace spnhbm::engine
