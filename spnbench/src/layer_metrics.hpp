// The per-layer metrics of a traced run, shared by every workload. A
// workload fills what its layers do; a layer it does not load reports 0.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "layers.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "spnhbm/engine/server.hpp"

namespace spnbench {

struct ServerSummary {
  double queue_wait_p50_us = 0.0;
  double queue_wait_p99_us = 0.0;
  double mean_batch_samples = 0.0;
  double deadline_flush_fraction = 0.0;
  double rejected = 0.0;
};

/// Totals over the servers of a phase (one per wave, or one per run).
ServerSummary summarize(std::span<const spnhbm::engine::ServerStats> stats);

struct LayerMetrics {
  // compiler: the bit-accurate evaluator, timed directly.
  double evaluate_ns_per_sample = 0.0;
  double evaluate_ns_per_op = 0.0;
  // engine: the benchmark's wrapper around the FPGA engine (host clock).
  double engine_batches = 0.0;
  double samples_per_batch = 0.0;
  double host_us_per_batch_p50 = 0.0;
  double host_us_per_batch_p99 = 0.0;
  double host_us_per_batch_growth = 0.0;
  double host_busy_fraction = 0.0;
  // simulated card (virtual clock).
  double sim_us_per_batch = 0.0;
  double pcie_h2d_bytes_per_sample = 0.0;
  double pcie_d2h_bytes_per_sample = 0.0;
  double pcie_transfers_per_batch = 0.0;
  double hbm_bytes_per_sample = 0.0;
  double hbm_row_hit_ratio = 0.0;
  double accelerator_jobs_per_batch = 0.0;
  // engine server.
  ServerSummary server;
  // the client's view: request latency from its due time, untraced.
  double client_latency_p50_us = 0.0;
  double client_latency_p99_us = 0.0;
  // rpc and the benchmark's load generator.
  double rpc_server_latency_p50_us = 0.0;
  double rpc_server_latency_p99_us = 0.0;
  double rpc_wire_us = 0.0;
  double rpc_shed = 0.0;
  double rpc_duplicates = 0.0;
  double gen_lateness_p99_us = 0.0;
  // ceilings, reported beside the results.
  double fig6_sim_samples_per_s = 0.0;
  double cpu_engine_samples_per_s = 0.0;
  // tracing itself.
  double tracing_overhead_fraction = 0.0;
  std::map<std::string, LayerTime> layers;
  std::size_t spans = 0;
};

/// Host time per call of `call(i)` for i in [0, count), in nanoseconds;
/// the median of three rounds. Times the evaluator directly.
double time_per_call_ns(std::size_t count,
                        const std::function<void(std::size_t)>& call);

/// Engine metrics from the wrapper's batch records over `wall_s` seconds.
void fill_engine(LayerMetrics& m, std::span<const BatchRecord> batches,
                 double wall_s);

/// Card metrics from counter deltas over `samples` samples in `batches`
/// engine batches that took `virtual_s` of card time.
void fill_card(LayerMetrics& m, const CardCounters& card, std::size_t samples,
               std::uint64_t batches, double virtual_s);

/// Adds every per-layer metric, by its published name, to the report.
void add_layer_metrics(RunReport& report, const LayerMetrics& m);

}  // namespace spnbench
