// InferenceEngine adapter over the analytic V100 execution model.
//
// Timing comes from the mechanistic model (kernel launches, DRAM
// round-trips, PCIe transfers — see gpu/execution_model.hpp); functional
// results are computed host-side in double precision through the float64
// OpProgram of the compiled datapath, which mirrors the real baseline:
// SPFlow's TensorFlow backend also evaluates the graph in IEEE floating
// point.
#pragma once

#include <memory>

#include "spnhbm/engine/engine.hpp"
#include "spnhbm/gpu/execution_model.hpp"

namespace spnhbm::engine {

class GpuModelEngine : public InferenceEngine {
 public:
  explicit GpuModelEngine(ModelHandle artifact, gpu::GpuModelConfig config = {});

  const EngineCapabilities& capabilities() const override {
    return capabilities_;
  }
  const ModelHandle& loaded_model() const override { return artifact_; }
  /// Cheap swap: the analytic model is model-independent, only the
  /// compiled operator program changes. No batch may be in flight.
  void activate(ModelHandle next) override;
  BatchHandle submit(std::span<const std::uint8_t> samples,
                     std::span<double> results) override;
  /// Sparse batches evaluate through the program's sparse path; timing
  /// stays the dense analytic model (the real TF baseline feeds
  /// dense tensors, so sparse evidence saves it nothing).
  BatchHandle submit_sparse(std::span<const std::uint8_t> stream,
                            std::size_t sample_count,
                            std::span<double> results) override;
  void wait(BatchHandle handle) override;
  double measure_throughput(std::uint64_t sample_count) override;
  EngineStats stats() const override {
    EngineStats stats = stats_;
    stats.batch_latency_us = batch_latency_us_.snapshot();
    return stats;
  }

  const gpu::GpuExecutionModel& model() const { return model_; }

 private:
  void refresh_capabilities();

  ModelHandle artifact_;
  gpu::GpuExecutionModel model_;
  std::unique_ptr<arith::ArithBackend> f64_;
  EngineCapabilities capabilities_;
  EngineStats stats_;
  telemetry::Histogram batch_latency_us_;
  BatchHandle next_handle_ = 1;
  BatchHandle last_completed_ = 0;
};

}  // namespace spnhbm::engine
