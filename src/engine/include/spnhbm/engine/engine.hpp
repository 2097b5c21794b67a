// The unified inference-engine abstraction (the serving seam).
//
// Every execution path in this repo — the simulated HBM FPGA card driven
// by the §IV-B host runtime, the prior-work F1 configuration, the native
// vectorised CPU baseline and the analytic V100 execution model — is an
// implementation of this one interface:
//
//   capabilities()         what the backend is and how fast it claims
//                          to be (used for dispatch weighting),
//   submit() / wait()      batch inference with an explicit completion
//                          barrier (engines may complete synchronously;
//                          wait() is the only guarantee),
//   measure_throughput()   the fair cross-platform timing probe behind
//                          paper Fig. 6,
//   stats()                cumulative per-engine accounting.
//
// Engine instances are deliberately NOT thread-safe: one engine is owned
// by exactly one driver thread (the InferenceServer dedicates a worker
// thread per registered engine). Asynchrony, batching, dispatch and
// backpressure live one level up, in InferenceServer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "spnhbm/model/artifact.hpp"
#include "spnhbm/telemetry/metrics.hpp"
#include "spnhbm/util/error.hpp"

namespace spnhbm::engine {

using BatchHandle = std::uint64_t;
/// Shared pin on an immutable model artifact (see spnhbm/model/artifact.hpp).
using ModelHandle = model::ModelHandle;

struct EngineCapabilities {
  /// Human-readable backend identifier ("fpga-sim/hbm", "cpu-native", ...).
  std::string name;
  /// Bytes per input sample the compiled module expects.
  std::size_t input_features = 0;
  /// Whether submit() computes real probabilities. Timing-only
  /// configurations (compute_results disabled) reject functional batches.
  bool functional = true;
  /// The backend's own steady-state samples/s estimate; the server prefers
  /// measured throughput once batches have completed. 0 = unknown.
  double nominal_throughput = 0.0;
  /// Batch size that amortises the backend's per-batch overhead.
  std::size_t preferred_batch_samples = 4096;
};

struct EngineStats {
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  /// Time attributed to the backend: virtual device time for the FPGA
  /// simulation, modelled batch time for the GPU model, wall time for the
  /// native CPU engine.
  double busy_seconds = 0.0;
  /// Distribution of per-batch busy time in microseconds (same time base
  /// as busy_seconds).
  telemetry::HistogramSnapshot batch_latency_us;
  /// Completed activate() calls and the time they cost (virtual
  /// reconfiguration time for the FPGA simulation, ~0 for CPU/GPU swaps).
  /// Kept separate from busy_seconds so throughput stays a compute rate.
  std::uint64_t reconfigurations = 0;
  double reconfiguration_seconds = 0.0;

  double samples_per_second() const {
    return busy_seconds > 0.0 ? static_cast<double>(samples) / busy_seconds
                              : 0.0;
  }
  std::string describe() const;
};

class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  virtual const EngineCapabilities& capabilities() const = 0;

  /// The artifact the engine currently serves. Never null.
  virtual const ModelHandle& loaded_model() const = 0;

  /// Swaps the engine onto `next`. No batch may be in flight. CPU/GPU
  /// engines swap cheaply; the FPGA simulation models reconfiguration
  /// mechanistically (datapath re-composition, placement re-check, charged
  /// reconfiguration time, lookup tables re-staged over the DMA path). On
  /// failure (e.g. PlacementError) the previous model stays active.
  /// capabilities() may change (input_features, nominal_throughput).
  virtual void activate(ModelHandle next) = 0;

  /// Starts one batch: `samples` holds rows of capabilities().input_features
  /// bytes each, `results` receives one joint probability per row. Both
  /// spans must stay valid until wait() returns on the handle.
  virtual BatchHandle submit(std::span<const std::uint8_t> samples,
                             std::span<double> results) = 0;

  /// Starts one batch of CSR sparse evidence (the per-sample
  /// {active_count, {index, value}*} stream of
  /// compiler/sparse_evidence.hpp); absent variables read the module's
  /// default evidence. Backends that move data charge only the stream's
  /// bytes — on the FPGA simulation both PCIe and HBM traffic shrink
  /// with the active-index density. The base implementation throws:
  /// engines advertise support by overriding.
  virtual BatchHandle submit_sparse(std::span<const std::uint8_t> stream,
                                    std::size_t sample_count,
                                    std::span<double> results) {
    (void)stream;
    (void)sample_count;
    (void)results;
    throw Error("engine '" + capabilities().name +
                "' does not support sparse evidence");
  }

  /// Blocks until the batch behind `handle` has completed. Each handle
  /// must be waited on exactly once.
  virtual void wait(BatchHandle handle) = 0;

  /// Fair cross-platform timing probe: steady-state samples/s over a
  /// synthetic load of `sample_count` samples.
  virtual double measure_throughput(std::uint64_t sample_count) = 0;

  virtual EngineStats stats() const = 0;

  /// Convenience synchronous path: submit + wait, returning the results.
  std::vector<double> infer(std::span<const std::uint8_t> samples);

  /// Convenience synchronous sparse path: submit_sparse + wait.
  std::vector<double> infer_sparse(std::span<const std::uint8_t> stream,
                                   std::size_t sample_count);

 protected:
  /// Validates a submit() call against the capabilities and returns the
  /// sample count.
  std::size_t check_batch(std::span<const std::uint8_t> samples,
                          std::span<double> results) const;

  /// Checks a submit_sparse() call's shape (functional capability, result
  /// span width). The stream itself is validated by the one decode each
  /// engine's sparse path makes before it touches device or engine state,
  /// so a malformed stream still throws ParseError with no state changed.
  void check_sparse_batch(std::size_t sample_count,
                          std::span<double> results) const;
};

}  // namespace spnhbm::engine
