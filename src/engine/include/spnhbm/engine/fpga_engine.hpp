// InferenceEngine adapter over the simulated TaPaSCo FPGA card.
//
// Each FpgaSimEngine owns a complete simulation stack — DES scheduler,
// platform composition (HBM XUP-VVH or prior-work F1) and the §IV-B host
// runtime — so one engine models one card plus its driver, and registering
// N engines with the InferenceServer models sharding across N independent
// cards.
//
// Functional batches run through the full copy/launch/readback path of
// InferenceRuntime::infer, which plans each batch and streams its blocks
// across the PEs; measure_throughput drives the fixed-block timing job
// (InferenceRuntime::run), which is exactly how the Fig. 4/5/6
// benchmarks measured before this layer existed — the numbers are
// unchanged by construction.
//
// activate() models a real model swap: the next design is composed (and
// placement-checked) first, the card is reprogrammed (charged in virtual
// time), and the new design's lookup tables are staged into each PE's
// memory channel through the real DMA path. On any failure the previous
// model keeps serving.
//
// Partitioned tenants (FpgaSimDevice): when the engine is one tenant of a
// spatially partitioned device, reconfiguration is *partial* — only the
// tenant's partition streams through the ICAP, so the charge is
// partition_bitstream_fraction of the full bitstream and the device's
// other tenants keep serving throughout. Spatial isolation (disjoint PE
// slots + disjoint HBM channels, see fpga/partition.hpp) is what makes
// the per-tenant simulation honest: partitions share no queue, so each
// tenant owns an independent virtual timeline.
#pragma once

#include <memory>

#include "spnhbm/engine/engine.hpp"
#include "spnhbm/runtime/inference_runtime.hpp"
#include "spnhbm/telemetry/trace.hpp"

namespace spnhbm::engine {

struct FpgaEngineConfig {
  fpga::Platform platform = fpga::Platform::kHbmXupVvh;
  /// 0 = the largest placeable design on the platform. Negative counts
  /// are rejected with ConfigError (they used to be silently promoted).
  int pe_count = 1;
  /// F1 only: DDR channels/controllers composed in.
  int memory_channels = 1;
  /// Host-runtime block size per PE job. 0 = the model's attached tuning
  /// manifest when present, the calibrated default otherwise.
  std::size_t block_samples = 0;
  /// HBM channel packing (PEs per channel). 0 = the attached tuning
  /// manifest when present, the paper's dedicated 1:1 otherwise.
  int hbm_pes_per_channel = 0;
  /// Route PEs through the HBM crossbar. An attached tuning manifest
  /// overrides this (the tuner searches the routing dimension).
  bool hbm_crossbar = false;
  int threads_per_pe = 1;
  int pcie_generation = 3;
  /// Include host<->device transfers in timing runs (paper Fig. 4 right).
  bool include_transfers = true;
  /// Evaluate samples functionally. Disable for timing-only sweeps: the
  /// engine then rejects submit() but measure_throughput still works.
  bool compute_results = true;
  bool skip_placement_check = false;
  double dma_failure_rate = 0.0;
  // --- Partitioned-tenant context (set by FpgaSimDevice) -------------------
  /// Fraction of the full-device bitstream this engine's partition covers.
  /// In (0, 1]: reconfiguration is partial (charge scales with the
  /// fraction); 0 = the engine owns the whole device (full bitstream).
  double partition_bitstream_fraction = 0.0;
  /// Display label ("device/partition") appended to capabilities().name.
  std::string partition_label;
  /// Charge the initial partition programming + table staging in virtual
  /// time at construction (adding a tenant reconfigures its partition;
  /// a whole-device engine is assumed pre-programmed, as before).
  bool charge_initial_program = false;
};

class FpgaSimEngine : public InferenceEngine {
 public:
  /// Composes the design; throws PlacementError if it does not fit.
  explicit FpgaSimEngine(ModelHandle model, FpgaEngineConfig config = {});

  const EngineCapabilities& capabilities() const override {
    return capabilities_;
  }
  const ModelHandle& loaded_model() const override { return model_; }
  void activate(ModelHandle next) override;
  BatchHandle submit(std::span<const std::uint8_t> samples,
                     std::span<double> results) override;
  /// Sparse batches ride InferenceRuntime::infer_sparse: only the CSR
  /// stream's bytes cross the PCIe DMA and the PEs' HBM channels, so the
  /// modelled transfer time genuinely shrinks with active-index density.
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

  int pe_count() const { return static_cast<int>(device_->pe_count()); }
  /// Escape hatch for sweeps that need RunStats beyond samples/s.
  runtime::InferenceRuntime& runtime() { return *runtime_; }
  /// Virtual time the simulated card has accumulated.
  Picoseconds virtual_now() const { return scheduler_.now(); }

 private:
  void refresh_capabilities();
  /// Streams the (partial or full) bitstream through the ICAP and stages
  /// `artifact`'s lookup tables into each PE's channel over the DMA path,
  /// all in virtual time; returns the reconfiguration charge.
  Picoseconds program_and_stage(tapasco::Device& device,
                                runtime::InferenceRuntime& runtime,
                                const model::ModelArtifact& artifact);

  ModelHandle model_;
  FpgaEngineConfig config_;
  /// Virtual-clock telemetry track of this card ("fpga/eN[ @partition]");
  /// 0 while tracing is disabled.
  telemetry::TrackId track_ = 0;
  sim::Scheduler scheduler_;
  sim::ProcessRunner runner_;
  std::unique_ptr<tapasco::Device> device_;
  std::unique_ptr<runtime::InferenceRuntime> runtime_;
  EngineCapabilities capabilities_;
  EngineStats stats_;
  telemetry::Histogram batch_latency_us_;
  BatchHandle next_handle_ = 1;
  BatchHandle last_completed_ = 0;
};

}  // namespace spnhbm::engine
