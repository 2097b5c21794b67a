// Native CPU inference baseline (really runs on the host).
//
// The paper's CPU baseline is vectorised multi-threaded batch inference on
// a 12-core Xeon E5-2680 v3. This engine reproduces that implementation
// style: the compiled datapath runs as its float64 compiler::OpProgram,
// which evaluates *lanes* of samples simultaneously (struct-of-arrays
// layout, so the compiler auto-vectorises across the batch), with this
// engine's own thread pool splitting the batch across cores.
//
// Because the container this repo is built in may have any core count, the
// engine reports its own measured throughput; the paper-scale Xeon numbers
// for Fig. 6 come from baselines/reference_platforms.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/util/thread_pool.hpp"

namespace spnhbm::baselines {

class CpuInferenceEngine {
 public:
  CpuInferenceEngine(const compiler::DatapathModule& module,
                     std::size_t threads);

  /// Batch inference: `samples` holds rows of `input_features()` bytes;
  /// one float64 datapath value per row is written to `results`.
  void infer(std::span<const std::uint8_t> samples,
             std::span<double> results);

  /// Measured end-to-end throughput (samples/s) over a synthetic batch.
  double measure_throughput(std::size_t sample_count,
                            std::uint64_t seed = 1);

  std::size_t threads() const { return pool_->worker_count(); }
  const compiler::DatapathModule& module() const { return module_; }

 private:
  const compiler::DatapathModule& module_;
  std::unique_ptr<arith::ArithBackend> f64_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace spnhbm::baselines
