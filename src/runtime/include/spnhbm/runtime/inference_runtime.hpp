// The multi-threaded host runtime (paper §IV-B).
//
// Splits an inference job into blocks and drives them with
// `threads_per_pe` control threads per accelerator. Each control thread
// takes the next block from a shared cursor and loops:
//
//   1. stage the block into a pinned DMA buffer (host memcpy),
//   2. DMA the inputs into the PE's HBM channel,
//   3. launch the PE and wait for its completion interrupt,
//   4. DMA the results back and unstage them.
//
// With two threads per PE, thread B performs transfers for block n+1 while
// thread A waits on the computation of block n — the transfer/compute
// overlap scheme of the paper and [8]. Device buffers come from the
// thread-safe DeviceMemoryManager, per PE channel.
//
// One executor serves both kinds of job:
//
//   * run() — the timing job behind Fig. 4/5/6: a fixed plan of
//     `block_samples`-sample blocks, one block-sized buffer pair per
//     control thread, host staging charged when configured.
//   * infer()/infer_sparse() — every served batch: real bytes, planned per
//     batch. The batch is cut into k contiguous blocks (dense: row ranges;
//     sparse: byte ranges at sample boundaries of the CSR stream), each
//     DMA'd with its real bytes into its own PE's channel, launched and
//     read back, so the transfers of one block overlap the compute of
//     another. k minimises T(k) ≈ T0 + k·o + c/k, with o the DMA engine's
//     per-transfer occupancy and c the batch's compute time on one PE
//     (samples / PE clock, read from the accelerator): k = round(√(c/o)),
//     clamped to [⌈n/block_samples⌉, PEs × threads_per_pe]. A batch too
//     small to pay for a second transfer stays one block on PE 0.
//
// Control threads are virtual-time actors here (the runtime logic is
// identical; the scheduling substrate is the DES instead of pthreads).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "spnhbm/fpga/calibration.hpp"
#include "spnhbm/runtime/memory_manager.hpp"
#include "spnhbm/tapasco/device.hpp"
#include "spnhbm/telemetry/trace.hpp"

namespace spnhbm::runtime {

struct RuntimeConfig {
  std::size_t block_samples = fpga::cal::kDefaultBlockSamples;
  int threads_per_pe = 1;
  /// Include host<->device transfers (paper Fig. 4 right) or measure
  /// on-device computation only (Fig. 4 left).
  bool include_transfers = true;
  /// Model the host-side staging copy into pinned buffers.
  bool model_host_staging = true;
};

struct RunStats {
  std::uint64_t samples = 0;
  Picoseconds elapsed = 0;
  double samples_per_second = 0.0;
  std::uint64_t blocks = 0;
  double dma_utilisation = 0.0;
  std::uint64_t dma_bytes = 0;

  std::string describe() const;
};

class InferenceRuntime {
 public:
  /// Queries each PE's synthesis-time configuration (second execution
  /// mode) and verifies it against the compiled module.
  InferenceRuntime(sim::ProcessRunner& runner, tapasco::Device& device,
                   const compiler::DatapathModule& module,
                   RuntimeConfig config = {});

  const RuntimeConfig& config() const { return config_; }
  DeviceMemoryManager& memory() { return memory_; }

  /// Timing run: processes `total_samples` spread over all PEs and returns
  /// end-to-end statistics. Drives the simulation to completion.
  RunStats run(std::uint64_t total_samples);

  /// Functional end-to-end inference of real samples (row-major bytes,
  /// one row per sample): returns one result per sample (joint density,
  /// marginal, or max-product value depending on the module's query),
  /// computed by the accelerators through the full copy/launch/readback
  /// path, block by block across the PEs (see plan_blocks).
  std::vector<double> infer(std::span<const std::uint8_t> samples);

  /// Functional inference over a CSR sparse-evidence stream of
  /// `sample_count` samples (see compiler/sparse_evidence.hpp for the
  /// layout). Only the stream's bytes cross PCIe and the PEs' HBM
  /// channels — the bandwidth saving sparse queries exist for.
  std::vector<double> infer_sparse(std::span<const std::uint8_t> stream,
                                   std::size_t sample_count);

  /// Number of blocks a served batch of `samples` samples is cut into.
  std::uint64_t plan_blocks(std::uint64_t samples) const;

 private:
  /// One job's blocks, handed out in order to whichever control thread
  /// asks next. Block b covers samples [b·block_samples, ...).
  struct BlockCursor {
    std::uint64_t next_block = 0;
    std::uint64_t block_count = 0;
    std::uint64_t block_samples = 0;
    std::uint64_t total_samples = 0;
    /// Functional jobs only (empty for timing runs): the input bytes and
    /// the raw result bytes, 8 per sample.
    std::span<const std::uint8_t> input;
    std::span<std::uint8_t> output;
    /// Sparse jobs only: the decoded CSR offsets, so sample i starts at
    /// byte 2·i + 3·sparse_offsets[i] of `input`.
    std::span<const std::uint32_t> sparse_offsets;

    bool functional() const { return !output.empty(); }
  };

  std::vector<double> infer_blocks(std::span<const std::uint8_t> input,
                                   std::uint64_t samples,
                                   std::span<const std::uint32_t> sparse_offsets);
  /// Starts the control threads on `cursor`, drives the simulation to
  /// completion and rethrows the first failure.
  void execute(BlockCursor& cursor);
  sim::Process control_thread(std::size_t pe_index, BlockCursor& cursor,
                              sim::Resource& pe_lock,
                              telemetry::TrackId track);

  sim::ProcessRunner& runner_;
  tapasco::Device& device_;
  const compiler::DatapathModule& module_;
  RuntimeConfig config_;
  DeviceMemoryManager memory_;
  /// PE clock, read from the accelerator's configuration mode.
  double pe_clock_hz_ = 0.0;
  /// One permit per PE: a PE runs one job at a time.
  std::vector<std::unique_ptr<sim::Resource>> pe_locks_;
  /// Per-(PE, thread) trace tracks, index pe·threads_per_pe + thread.
  std::vector<telemetry::TrackId> tracks_;
  /// The current job's control threads (kept to reuse the storage).
  std::vector<sim::Process> threads_;
};

}  // namespace spnhbm::runtime
