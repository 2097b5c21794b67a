// Shared helpers for the benchmark harness binaries.
//
// Each binary regenerates one table or figure of the paper: it prints the
// same rows/series the paper reports, alongside the published values where
// available, so shape deviations are visible at a glance.
#pragma once

#include <cstdio>
#include <string>

#include "spnhbm/arith/backend.hpp"
#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/runtime/inference_runtime.hpp"
#include "spnhbm/tapasco/device.hpp"
#include "spnhbm/util/strings.hpp"
#include "spnhbm/util/table.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm::bench {

inline void print_header(const std::string& title, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("================================================================\n");
}

inline void print_table(const Table& table) {
  std::fputs(table.render().c_str(), stdout);
}

/// End-to-end (or compute-only) throughput of an N-PE HBM design, timed on
/// the simulator through the unified engine interface. `samples_per_pe`
/// controls simulation effort.
inline double simulate_hbm_throughput(const compiler::DatapathModule& module,
                                      const arith::ArithBackend& backend,
                                      int pe_count, int threads_per_pe,
                                      bool include_transfers,
                                      std::uint64_t samples_per_pe = 3'000'000,
                                      bool skip_placement = false) {
  engine::FpgaEngineConfig config;
  config.pe_count = pe_count;
  config.threads_per_pe = threads_per_pe;
  config.include_transfers = include_transfers;
  config.compute_results = false;
  config.skip_placement_check = skip_placement;
  engine::FpgaSimEngine fpga(
      model::ModelArtifact::wrap("bench", module, backend), config);
  return fpga.measure_throughput(static_cast<std::uint64_t>(pe_count) *
                                 samples_per_pe);
}

/// Simulated prior-work F1 throughput ([8]'s architecture: float64
/// datapaths, shared DDR4, EDMA-class DMA), through the same interface.
inline double simulate_f1_throughput(const compiler::DatapathModule& module,
                                     const arith::ArithBackend& backend,
                                     int pe_count, int memory_channels,
                                     std::uint64_t samples_per_pe = 2'000'000) {
  engine::FpgaEngineConfig config;
  config.platform = fpga::Platform::kF1;
  config.pe_count = pe_count;
  config.memory_channels = memory_channels;
  config.threads_per_pe = 2;  // [8] overlapped with multiple threads
  config.compute_results = false;
  engine::FpgaSimEngine fpga(
      model::ModelArtifact::wrap("bench", module, backend), config);
  return fpga.measure_throughput(static_cast<std::uint64_t>(pe_count) *
                                 samples_per_pe);
}

inline std::string msamples(double per_second) {
  return strformat("%.1f", per_second / 1e6);
}

}  // namespace spnhbm::bench
